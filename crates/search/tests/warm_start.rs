//! Integration tests for the cross-solve reuse layer: cold-path
//! determinism, exact-hit serving, a cache that leaves every other solve
//! untouched, and the anytime budget floor — every served or solved plan
//! re-checked through the independent verifier.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{prepare, Solver};
use kfuse_core::plan::PlanContext;
use kfuse_gpu::GpuSpec;
use kfuse_ir::{Expr, Program};
use kfuse_obs::Counter;
use kfuse_search::{HggaConfig, HggaHierSolver, PartitionMode, WarmSolver};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("kfuse-warmstart-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn prepared(p: &Program) -> PlanContext {
    let gpu = GpuSpec::k20x();
    let (_, ctx) = prepare(p, &gpu, gpu.default_precision());
    ctx
}

fn quick_hier(seed: u64, partition: PartitionMode) -> HggaHierSolver {
    let mut s = HggaHierSolver::with_seed(seed);
    s.config = HggaConfig {
        population: 24,
        max_generations: 30,
        stall_generations: 10,
        seed,
        ..HggaConfig::default()
    };
    s.partition = partition;
    s
}

/// Perturb ~10% of the kernels by adding a FLOP to their first statement
/// (changes flops, runtime and therefore the kernels' local signatures).
fn perturb(p: &Program, fraction_denom: usize) -> Program {
    let mut q = p.clone();
    let step = fraction_denom.max(1);
    for (i, k) in q.kernels.iter_mut().enumerate() {
        if i % step == 0 {
            let st = &mut k.segments[0].statements[0];
            st.expr = st.expr.clone() + Expr::lit(1.0);
        }
    }
    q
}

fn assert_clean(
    ctx: &PlanContext,
    model: &ProposedModel,
    out: &kfuse_core::pipeline::SolveOutcome,
) {
    assert!(ctx.validate(&out.plan).is_ok(), "plan must validate");
    let report = kfuse_verify::check_plan(&ctx.info, &out.plan, Some(model));
    assert!(
        report.is_clean(),
        "independent verifier rejected the plan:\n{}",
        report.render_human()
    );
}

#[test]
fn cold_path_without_cache_or_budget_is_bit_for_bit_unchanged() {
    let p = kfuse_workloads::synth::scaling(24);
    let ctx = prepared(&p);
    let model = ProposedModel::default();
    let inner = quick_hier(7, PartitionMode::Off);
    let cold = inner.solve(&ctx, &model);
    let warm = WarmSolver::new(quick_hier(7, PartitionMode::Off), None, None).solve(&ctx, &model);
    assert_eq!(cold.plan, warm.plan);
    assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());

    // Same pin through the hierarchical path.
    let p = kfuse_workloads::synth::clustered(4, 15, 0.3);
    let ctx = prepared(&p);
    let cold = quick_hier(9, PartitionMode::MaxRegion(16)).solve(&ctx, &model);
    let warm = WarmSolver::new(quick_hier(9, PartitionMode::MaxRegion(16)), None, None)
        .solve(&ctx, &model);
    assert_eq!(cold.plan, warm.plan);
    assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
}

#[test]
fn exact_repeat_is_served_from_cache_and_reverified() {
    let dir = tmpdir("exact");
    let p = kfuse_workloads::synth::scaling(24);
    let ctx = prepared(&p);
    let model = ProposedModel::default();

    let solver = || WarmSolver::new(quick_hier(7, PartitionMode::Off), Some(dir.clone()), None);
    let cold = solver().solve(&ctx, &model);
    assert_eq!(cold.metrics.get(Counter::CacheProbes), 1);
    assert_eq!(cold.metrics.get(Counter::CacheMisses), 1);
    assert_eq!(cold.metrics.get(Counter::CacheHits), 0);
    assert_clean(&ctx, &model, &cold);

    let warm = solver().solve(&ctx, &model);
    assert_eq!(warm.metrics.get(Counter::CacheProbes), 1);
    assert_eq!(warm.metrics.get(Counter::CacheHits), 1);
    assert_eq!(warm.metrics.get(Counter::CacheMisses), 0);
    assert_eq!(
        warm.metrics.get(Counter::Generations),
        0,
        "a served plan runs no search"
    );
    assert_eq!(warm.plan, cold.plan);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_clean(&ctx, &model, &warm);
}

/// A cache answers exact repeats and nothing else: a perturbed program
/// solved through a cache holding its original gets the cacheless solve's
/// plan, objective and generation count, flat and partitioned, whether
/// one kernel or a tenth of them changed.
#[test]
fn non_exact_solve_through_a_cache_equals_the_cacheless_solve() {
    let p = kfuse_workloads::synth::clustered(4, 15, 0.3);
    let mut one = p.clone();
    let st = &mut one.kernels[0].segments[0].statements[0];
    st.expr = st.expr.clone() + Expr::lit(1.0);
    let model = ProposedModel::default();
    for (name, mode) in [
        ("off", PartitionMode::Off),
        ("r16", PartitionMode::MaxRegion(16)),
    ] {
        let dir = tmpdir(&format!("near-{name}"));
        let solver = |dir: Option<PathBuf>| WarmSolver::new(quick_hier(11, mode), dir, None);
        let first = solver(Some(dir.clone())).solve(&prepared(&p), &model);
        assert_eq!(first.metrics.get(Counter::CacheMisses), 1);
        for q in [perturb(&p, 10), one.clone()] {
            let qctx = prepared(&q);
            let cached = solver(Some(dir.clone())).solve(&qctx, &model);
            let plain = solver(None).solve(&qctx, &model);
            assert_eq!(cached.metrics.get(Counter::CacheProbes), 1, "{name}");
            assert_eq!(cached.metrics.get(Counter::CacheMisses), 1, "{name}");
            assert_eq!(cached.metrics.get(Counter::WarmStarts), 0, "{name}");
            assert_eq!(cached.plan.groups, plain.plan.groups, "{name}");
            assert_eq!(
                cached.objective.to_bits(),
                plain.objective.to_bits(),
                "{name}"
            );
            assert_eq!(
                cached.metrics.get(Counter::Generations),
                plain.metrics.get(Counter::Generations),
                "{name}"
            );
            assert_clean(&qctx, &model, &cached);
        }
    }
}

#[test]
fn budget_mode_never_returns_below_the_greedy_floor() {
    let p = kfuse_workloads::synth::scaling(30);
    let ctx = prepared(&p);
    let model = ProposedModel::default();
    let greedy = kfuse_search::GreedySolver.solve(&ctx, &model);

    // A budget far too small for the GA to converge: the outcome must
    // still be feasible and no worse than greedy. The deadline is checked
    // at the top of every generation, so a budget that has already run
    // out must run none — budget adherence without a clock in the
    // assertion.
    for budget_ms in [0u64, 1, 5, 50] {
        let out = WarmSolver::new(
            quick_hier(17, PartitionMode::Off),
            None,
            Some(Duration::from_millis(budget_ms)),
        )
        .solve(&ctx, &model);
        if budget_ms == 0 {
            assert_eq!(out.metrics.get(Counter::Generations), 0);
        }
        assert_clean(&ctx, &model, &out);
        assert!(
            out.objective <= greedy.objective + 1e-12,
            "budget {budget_ms}ms: {} vs greedy floor {}",
            out.objective,
            greedy.objective
        );
    }
}

#[test]
fn corrupt_cache_degrades_to_cold_solve() {
    let dir = tmpdir("corrupt");
    std::fs::write(dir.join("plans.jsonl"), "{\"version\": 1, \"finger").unwrap();
    let p = kfuse_workloads::synth::scaling(24);
    let ctx = prepared(&p);
    let model = ProposedModel::default();
    let out = WarmSolver::new(quick_hier(7, PartitionMode::Off), Some(dir.clone()), None)
        .solve(&ctx, &model);
    assert_eq!(out.metrics.get(Counter::CacheMisses), 1);
    assert_clean(&ctx, &model, &out);
    // The solve's own result was appended after the corrupt line and is
    // served on the next run.
    let again =
        WarmSolver::new(quick_hier(7, PartitionMode::Off), Some(dir), None).solve(&ctx, &model);
    assert_eq!(again.metrics.get(Counter::CacheHits), 1);
}
