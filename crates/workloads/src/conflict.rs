//! The realized conflict graph of a workload and a clairvoyant lower
//! bound on makespan (DESIGN.md §14).
//!
//! The competitive-ratio report (`bfgts_run --report bench_competitive`)
//! compares every online contention manager against an *offline*
//! quantity: how fast the same transactions could possibly have finished
//! under a scheduler that knows the whole future. Computing the true offline optimum is NP-hard
//! (it embeds graph coloring), so we report a deterministic **lower
//! bound** instead — every measured makespan divided by it yields a
//! ratio that is provably ≥ 1, and smaller is better.
//!
//! Three bounds are combined, each valid under the run's own cost model
//! (the [`TmRunConfig`] the managers are measured with):
//!
//! 1. **Work**: all committed transaction cycles have to execute on
//!    `cpus` processors: `ceil(total_work / cpus)`.
//! 2. **Chain**: each thread runs its stream sequentially, so the
//!    heaviest per-thread chain is a floor regardless of CPU count.
//! 3. **Hot line**: LogTM write isolation means the periods in which
//!    distinct committing transactions hold the same line in write mode
//!    cannot overlap. A writer holds a line at least from its first
//!    write of it until commit, so per line the minimal holds of all its
//!    writers sum into a serialization floor.
//!
//! The streams come from [`drain_canonical`], which mirrors the
//! engine's per-thread RNG derivation (`seed_from(seed).derive(t + 1)`)
//! and drains each source without contention — the canonical
//! realization every manager's first-attempt stream is drawn from.

use bfgts_htm::{TmRunConfig, TxInstance, TxSource};
use bfgts_sim::SimRng;
use std::collections::{BTreeMap, BTreeSet};

/// Minimum cycles a committed run of `tx` costs under `run`:
/// pre-transactional work, the begin checkpoint, every access, commit
/// bookkeeping. Scheduling overheads, aborts and stalls only add on top,
/// which keeps every bound derived from these figures conservative.
fn tx_cost(run: &TmRunConfig, tx: &TxInstance) -> u64 {
    tx.pre_work
        + run.costs.tx_begin
        + tx.len() as u64 * run.thread_cfg.access_cost
        + run.costs.tx_commit
}

/// One transaction instance in the realized conflict graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxNode {
    /// The thread whose stream the instance came from.
    pub thread: usize,
    /// Position in that thread's stream.
    pub index: usize,
    /// Minimum committed cost under the run's costs.
    pub cost: u64,
    /// Distinct lines read (and never written) by the instance.
    pub reads: Vec<u64>,
    /// Distinct lines written by the instance.
    pub writes: Vec<u64>,
}

/// The realized conflict graph: one node per transaction instance, one
/// edge per cross-thread pair whose line sets overlap with at least one
/// write — exactly the pairs an eager HTM can force to serialize.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    nodes: Vec<TxNode>,
    edges: Vec<(usize, usize)>,
    /// Per line, the summed minimal write-hold of its committing
    /// writers (bound 3). Precomputed at build time.
    hotline: BTreeMap<u64, u64>,
    /// Per thread, the summed cost of its stream (bound 2).
    chains: Vec<u64>,
}

/// The clairvoyant makespan lower bound and its three components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBound {
    /// Total committed cycles across all instances.
    pub total_work: u64,
    /// Bound 1: `ceil(total_work / cpus)`.
    pub work_bound: u64,
    /// Bound 2: the heaviest sequential per-thread chain.
    pub chain_bound: u64,
    /// Bound 3: the most serialized single line's summed write holds.
    pub hotline_bound: u64,
    /// The combined bound: the maximum of the three.
    pub bound: u64,
}

/// Drains each source to exhaustion under the engine's per-thread RNG
/// derivation, returning the canonical per-thread instance streams.
pub fn drain_canonical<S: TxSource>(sources: Vec<S>, seed: u64) -> Vec<Vec<TxInstance>> {
    sources
        .into_iter()
        .enumerate()
        .map(|(t, mut source)| {
            let mut rng = SimRng::seed_from(seed).derive(t as u64 + 1);
            let mut stream = Vec::new();
            while let Some(tx) = source.next_tx(&mut rng) {
                stream.push(tx);
            }
            stream
        })
        .collect()
}

impl ConflictGraph {
    /// Builds the graph of the given per-thread streams, pricing each
    /// committed transaction at `run`'s costs: its `CostModel` begin and
    /// commit figures and its thread driver's per-access cost.
    pub fn build(streams: &[Vec<TxInstance>], run: &TmRunConfig) -> Self {
        let mut nodes = Vec::new();
        let mut chains = vec![0u64; streams.len()];
        // Per line: (node ids that write it, node ids that only read it),
        // and the summed minimal write-hold.
        let mut by_line: BTreeMap<u64, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        let mut hotline: BTreeMap<u64, u64> = BTreeMap::new();
        for (thread, stream) in streams.iter().enumerate() {
            for (index, tx) in stream.iter().enumerate() {
                let id = nodes.len();
                let cost = tx_cost(run, tx);
                chains[thread] += cost;
                let mut writes = BTreeSet::new();
                let mut touched = BTreeSet::new();
                for (i, a) in tx.accesses.iter().enumerate() {
                    let line = a.addr.get();
                    if a.is_write && writes.insert(line) {
                        // First write of this line: held in write mode
                        // from here to commit. Conservatively start the
                        // hold *after* the writing access completes.
                        let hold = (tx.len() as u64 - 1 - i as u64) * run.thread_cfg.access_cost
                            + run.costs.tx_commit;
                        *hotline.entry(line).or_insert(0) += hold;
                    }
                    touched.insert(line);
                }
                for &line in &touched {
                    let entry = by_line.entry(line).or_default();
                    if writes.contains(&line) {
                        entry.0.push(id);
                    } else {
                        entry.1.push(id);
                    }
                }
                nodes.push(TxNode {
                    thread,
                    index,
                    cost,
                    reads: touched.difference(&writes).copied().collect(),
                    writes: writes.into_iter().collect(),
                });
            }
        }
        let mut edges = BTreeSet::new();
        for (writers, readers) in by_line.values() {
            for (i, &w) in writers.iter().enumerate() {
                for &other in writers[i + 1..].iter().chain(readers.iter()) {
                    if nodes[w].thread != nodes[other].thread {
                        edges.insert((w.min(other), w.max(other)));
                    }
                }
            }
        }
        Self {
            nodes,
            edges: edges.into_iter().collect(),
            hotline,
            chains,
        }
    }

    /// The graph's nodes, in (thread, index) order.
    pub fn nodes(&self) -> &[TxNode] {
        &self.nodes
    }

    /// The conflict edges as ordered node-id pairs, lexicographically
    /// sorted and deduplicated.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The clairvoyant lower bound on makespan for `cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics on `cpus == 0`.
    pub fn lower_bound(&self, cpus: usize) -> LowerBound {
        assert!(cpus > 0, "a platform has at least one CPU");
        let total_work: u64 = self.nodes.iter().map(|n| n.cost).sum();
        let work_bound = total_work.div_ceil(cpus as u64);
        let chain_bound = self.chains.iter().copied().max().unwrap_or(0);
        let hotline_bound = self.hotline.values().copied().max().unwrap_or(0);
        LowerBound {
            total_work,
            work_bound,
            chain_bound,
            hotline_bound,
            bound: work_bound.max(chain_bound).max(hotline_bound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{RandomRegion, TxClass};
    use crate::WorkloadSource;
    use bfgts_htm::{Access, STxId};
    use std::sync::Arc;

    fn costs() -> TmRunConfig {
        TmRunConfig::new(2, 2)
    }

    #[test]
    fn tx_cost_sums_the_guaranteed_minimum() {
        let streams = vec![vec![TxInstance::writer_over(STxId(0), 0..2, 5)]];
        // 5 pre + 10 begin + 2 accesses * 3 + 20 commit
        assert_eq!(ConflictGraph::build(&streams, &costs()).nodes()[0].cost, 41);
        // The software-TM run prices the same instance at its own costs:
        // 5 pre + 150 begin + 2 accesses * 12 + 120 commit.
        let stm = TmRunConfig::stm_like(2, 2);
        assert_eq!(ConflictGraph::build(&streams, &stm).nodes()[0].cost, 299);
    }

    #[test]
    fn hand_computed_two_thread_graph() {
        let streams = vec![
            vec![TxInstance::writer_over(STxId(0), 0..2, 5)], // A: w{0,1}, cost 41
            vec![
                TxInstance::reader_over(STxId(1), 1..3, 0), // B: r{1,2}, cost 36
                TxInstance::writer_over(STxId(2), 100..101, 0), // C: w{100}, cost 33
            ],
        ];
        let g = ConflictGraph::build(&streams, &costs());
        assert_eq!(g.nodes().len(), 3);
        assert_eq!(g.nodes()[0].writes, vec![0, 1]);
        assert_eq!(g.nodes()[1].reads, vec![1, 2]);
        // A conflicts with B on line 1 (write/read); C is private.
        assert_eq!(g.edges(), &[(0, 1)]);
        let lb = g.lower_bound(2);
        assert_eq!(lb.total_work, 41 + 36 + 33);
        assert_eq!(lb.work_bound, 55);
        assert_eq!(lb.chain_bound, 36 + 33);
        // A holds line 0 from access 0 of 2: (2-1-0)*3 + 20 = 23.
        assert_eq!(lb.hotline_bound, 23);
        assert_eq!(lb.bound, 69);
    }

    #[test]
    fn hotspot_write_holds_serialize() {
        // 2 threads x 3 single-write transactions of one line: six
        // disjoint write holds of (1-1-0)*3 + 20 = 20 cycles each.
        let tx = || TxInstance::new(STxId(0), vec![Access::write(7)], 0);
        let streams = vec![vec![tx(), tx(), tx()], vec![tx(), tx(), tx()]];
        let g = ConflictGraph::build(&streams, &costs());
        // Every cross-thread pair conflicts: 3 * 3 = 9 edges.
        assert_eq!(g.edges().len(), 9);
        assert!(g
            .edges()
            .iter()
            .all(|&(a, b)| g.nodes()[a].thread != g.nodes()[b].thread));
        let lb = g.lower_bound(4);
        assert_eq!(lb.hotline_bound, 6 * 20);
        assert_eq!(lb.chain_bound, 3 * 33);
        assert_eq!(lb.bound, 120);
    }

    #[test]
    fn same_thread_pairs_never_form_edges() {
        let streams = vec![vec![
            TxInstance::writer_over(STxId(0), 0..2, 0),
            TxInstance::writer_over(STxId(1), 0..2, 0),
        ]];
        let g = ConflictGraph::build(&streams, &costs());
        assert!(g.edges().is_empty());
        assert_eq!(g.lower_bound(1).bound, g.lower_bound(1).chain_bound);
    }

    #[test]
    fn read_only_overlap_is_no_conflict() {
        let streams = vec![
            vec![TxInstance::reader_over(STxId(0), 0..4, 0)],
            vec![TxInstance::reader_over(STxId(1), 0..4, 0)],
        ];
        let g = ConflictGraph::build(&streams, &costs());
        assert!(g.edges().is_empty());
        assert_eq!(g.lower_bound(2).hotline_bound, 0);
    }

    #[test]
    fn canonical_drain_is_deterministic_and_mirrors_the_engine_streams() {
        let classes: Arc<[TxClass]> = vec![TxClass {
            stx: 0,
            weight: 1.0,
            private_hot: 2,
            shared_picks: 0,
            shared_pool: None,
            shared_writes: false,
            random_picks: 2,
            random_region: RandomRegion::Shared(crate::Region::new(100, 50)),
            write_frac: 0.5,
            pre_work: (1, 9),
        }]
        .into();
        let sources = || {
            (0..3)
                .map(|t| WorkloadSource::new(classes.clone(), t, 5))
                .collect::<Vec<_>>()
        };
        let a = drain_canonical(sources(), 42);
        let b = drain_canonical(sources(), 42);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), vec![5, 5, 5]);
        // A different master seed realizes different streams.
        assert_ne!(a, drain_canonical(sources(), 43));
        // Streams match a hand-derived per-thread replay of thread 1.
        let mut rng = SimRng::seed_from(42).derive(2);
        let mut src = WorkloadSource::new(classes.clone(), 1, 5);
        let first = src.next_tx(&mut rng).unwrap();
        assert_eq!(a[1][0], first);
    }
}
