//! Regression: the legacy `SolveStats` view must be exactly derivable
//! from the `kfuse-obs` metrics registry on every solver.
//!
//! Probes, misses and condensation checks were once hand-counted per
//! solver; registry counters and a single `SolveStats::from_metrics`
//! mapping replaced them. These tests pin that the mapping reproduces the
//! values each solver reports bit for bit (HGGA, greedy, exhaustive), and
//! that rates normalize to 0.0 — never NaN — when no probe was issued.

use kfuse_core::batch::LANES;
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{prepare, SolveOutcome, SolveStats, Solver};
use kfuse_gpu::GpuSpec;
use kfuse_obs::Counter;
use kfuse_search::{
    Evaluator, ExhaustiveSolver, GreedySolver, HggaConfig, HggaHierSolver, HggaSolver,
    PartitionMode,
};

fn context(kernels: usize) -> (kfuse_ir::Program, GpuSpec) {
    (kfuse_workloads::synth::scaling(kernels), GpuSpec::k20x())
}

fn cfg() -> HggaConfig {
    HggaConfig {
        population: 32,
        max_generations: 12,
        stall_generations: 6,
        seed: 0xAB5,
        ..HggaConfig::default()
    }
}

/// Assert that every registry-backed `SolveStats` field equals its
/// hand-counted / derived value in the outcome. `generations` is checked
/// by the caller, which knows whether its solver runs generations.
fn assert_registry_matches(out: &SolveOutcome) {
    let derived = SolveStats::from_metrics(&out.metrics);
    assert_eq!(out.stats.evaluations, derived.evaluations, "evaluations");
    assert_eq!(out.stats.probes, derived.probes, "probes");
    assert_eq!(
        out.stats.condensation_checks, derived.condensation_checks,
        "condensation_checks"
    );
    assert_eq!(out.stats.miss_ns, derived.miss_ns, "miss_ns");
    assert_eq!(out.stats.synth_ns, derived.synth_ns, "synth_ns");
    // Rates must agree bit for bit (same ratio primitive on both sides)
    // and never be NaN.
    assert_eq!(
        out.stats.cache_hit_rate.to_bits(),
        derived.cache_hit_rate.to_bits(),
        "cache_hit_rate"
    );
    assert_eq!(
        out.stats.miss_rate.to_bits(),
        derived.miss_rate.to_bits(),
        "miss_rate"
    );
    assert!(!out.stats.cache_hit_rate.is_nan());
    assert!(!out.stats.miss_rate.is_nan());
}

#[test]
fn hgga_single_stats_match_registry() {
    let (p, gpu) = context(20);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let out = HggaSolver { config: cfg() }.solve(&ctx, &model);
    assert_registry_matches(&out);
    assert_eq!(
        out.stats.generations as u64,
        out.metrics.get(Counter::Generations),
        "registry generations == legacy field"
    );
    assert!(out.metrics.get(Counter::Finalizes) > 0);
}

#[test]
fn greedy_stats_match_registry() {
    let (p, gpu) = context(20);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let out = GreedySolver.solve_observed(&ctx, &model, kfuse_obs::ObsHandle::disabled());
    assert_registry_matches(&out);
    assert_eq!(out.stats.generations, 0);
    // Each sweep commits exactly one merge until the final sweep finds
    // none and terminates the loop.
    assert_eq!(
        out.metrics.get(Counter::GreedyMerges) + 1,
        out.metrics.get(Counter::GreedySweeps)
    );
}

#[test]
fn exhaustive_stats_match_registry() {
    let (p, gpu) = context(8);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let out = ExhaustiveSolver::default().solve(&ctx, &model);
    assert_registry_matches(&out);
    assert!(out.metrics.get(Counter::PartitionsScored) > 0);
}

#[test]
fn hit_rate_is_zero_not_nan_when_no_probe_was_issued() {
    // A fresh memo reports 0.0 rates, not the NaN of a bare 0 / 0.
    let (p, gpu) = context(8);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();

    let fresh = Evaluator::new(&ctx, &model).snapshot();
    assert_eq!(fresh.get(Counter::MemoProbes), 0);
    let stats = SolveStats::from_metrics(&fresh);
    assert_eq!(stats.cache_hit_rate, 0.0);
    assert_eq!(stats.miss_rate, 0.0);
    assert_eq!(stats.avg_batch_fill, 0.0);
}

#[test]
fn every_miss_flush_counts_its_sweeps() {
    // One counter rule for every solver: each sweep fills at least one
    // lane, a lane holds one distinct miss (a structurally infeasible miss
    // takes none), and a sweep holds at most `LANES` of them.
    let (p, gpu) = context(40);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let hier = HggaHierSolver {
        config: cfg(),
        partition: PartitionMode::MaxRegion(12),
    };
    let outs = [
        ("greedy", GreedySolver.solve(&ctx, &model)),
        ("hgga", HggaSolver { config: cfg() }.solve(&ctx, &model)),
        ("hgga-hier", hier.solve(&ctx, &model)),
    ];
    for (name, out) in outs {
        let m = &out.metrics;
        let sweeps = m.get(Counter::BatchesScored);
        let lanes = m.get(Counter::BatchLanesFilled);
        let misses = m.get(Counter::MemoMisses);
        assert!(sweeps > 0, "{name}: no sweep counted");
        assert!(sweeps <= lanes, "{name}: {sweeps} sweeps, {lanes} lanes");
        assert!(
            lanes <= misses.min(LANES as u64 * sweeps),
            "{name}: {lanes} lanes, {misses} misses, {sweeps} sweeps"
        );
    }
}

#[test]
fn solve_observed_and_solve_agree() {
    // Recording a trace must not change the search trajectory: the
    // instrumented entry point returns the same plan, objective, and
    // counters as the plain one.
    let (p, gpu) = context(20);
    let (_, ctx) = prepare(&p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let solver = HggaSolver { config: cfg() };

    let plain = solver.solve(&ctx, &model);
    let rec = kfuse_obs::InMemoryRecorder::new();
    let traced = solver.solve_observed(&ctx, &model, kfuse_obs::ObsHandle::new(&rec));

    assert_eq!(plain.objective.to_bits(), traced.objective.to_bits());
    assert_eq!(plain.plan.groups, traced.plan.groups);
    assert_eq!(plain.stats.generations, traced.stats.generations);
    // All deterministic work counters must match; the wall-clock counters
    // (miss_ns/synth_ns) legitimately differ between runs.
    for c in [
        Counter::MemoProbes,
        Counter::MemoMisses,
        Counter::CondensationChecks,
        Counter::Generations,
        Counter::BestImprovements,
        Counter::Finalizes,
        Counter::GroupsRescored,
        Counter::GroupsSplit,
    ] {
        assert_eq!(
            plain.metrics.get(c),
            traced.metrics.get(c),
            "counter {} must not change under tracing",
            c.name()
        );
    }
    assert!(!rec.is_empty(), "tracing must actually record events");
}
