//! Solvers for the kernel-fusion combinatorial optimization problem.
//!
//! * [`hgga`] — the paper's search heuristic (§III-C): a Hybrid Grouping
//!   Genetic Algorithm after Falkenauer, adapted so crossover and mutation
//!   act on *groups* (prospective new kernels) and every individual is
//!   repaired to feasibility (constraints 1.1–1.7 plus condensation
//!   acyclicity) before evaluation. One population, one loop; its tests
//!   pin the trajectories recorded from the `Vec<Vec<KernelId>>` loop it
//!   replaced, bit for bit.
//! * [`chromo`] — the flat group-encoded [`chromo::Chromosome`] the HGGA
//!   inner loop operates on: arena-backed groups with cached per-group
//!   evaluations and delta rescoring; sealing asks the one condensation
//!   check, `kfuse_core::fuse::condensation_order_with`, over the
//!   chromosome itself (DESIGN.md §10).
//! * [`eval`] — the memoized group [`Evaluator`], one per solve and
//!   thread; every solver scores plans through it, so memo statistics are
//!   comparable across solvers. The unmemoized `PlanContext::objective`
//!   and the independent verifier are what its tests compare it against.
//! * [`exhaustive`] — exact enumeration of set partitions with feasibility
//!   pruning; the deterministic ground truth used to verify HGGA optimality
//!   on small benchmarks (Fig. 5a).
//! * [`greedy`] — a first-fit-style baseline that repeatedly applies the
//!   best profitable pairwise merge; stands in for the "polynomial-time
//!   approximation" strawman of §III-A.
//! * [`partition`] — hierarchical partition-first planning for 1k–10k
//!   kernel programs: cluster the sharing graph into weakly-coupled
//!   regions, solve each region with the HGGA in parallel, then stitch
//!   profitable cross-region fusions back in with a bounded local search.
//! * [`plancache`] / [`warmstart`] — the cross-solve reuse layer
//!   (DESIGN.md §16): a persistent JSONL plan cache keyed by the
//!   order-insensitive program fingerprint of `kfuse_core::fingerprint`,
//!   and the [`warmstart::WarmSolver`] wrapper that serves exact repeats
//!   outright (after independent re-validation), solves everything else
//!   exactly as a cacheless call would, and enforces an anytime
//!   wall-clock budget with a greedy quality floor.
//!
//! All solvers implement `Solver::solve_observed` from `kfuse-core`: pass
//! a `kfuse_obs::ObsHandle` to record spans (generations, region solves,
//! memo misses), counters, and objective-trajectory gauges;
//! `solve` is the zero-overhead disabled path. Work counters always
//! accumulate in the evaluator's `kfuse_obs::MetricsRegistry`, and each
//! `SolveOutcome` carries the final `MetricsSnapshot` from which its
//! legacy `SolveStats` view is derived.

#![warn(missing_docs)]

pub mod chromo;
pub mod eval;
pub mod exhaustive;
pub mod greedy;
pub mod hgga;
pub mod partition;
pub mod plancache;
pub mod warmstart;

pub use eval::Evaluator;
pub use exhaustive::ExhaustiveSolver;
pub use greedy::GreedySolver;
pub use hgga::{HggaConfig, HggaSolver};
pub use partition::{partition_regions, HggaHierSolver, Partition, PartitionMode};
pub use plancache::{CacheEntry, CacheWarning, PlanCache};
pub use warmstart::WarmSolver;
