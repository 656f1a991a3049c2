//! Acceptance tests for hierarchical partition-first planning (ISSUE 8):
//!
//! * `PartitionMode::Off` must reproduce the flat solver bit for bit on
//!   every built-in workload the CLI ships;
//! * every plan `hgga-hier` accepts — even under a forced decomposition —
//!   must pass the independent verifier and never score worse than the
//!   greedy baseline;
//! * the trajectory must be identical at any rayon thread count for a
//!   fixed seed (region results are slot-indexed, so scheduling cannot
//!   reorder the merge);
//! * a forced `MaxRegion(64)` decomposition must stay within 2 % of the
//!   flat solver's objective on synth60 and SCALE-LES.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{prepare, Solver};
use kfuse_core::plan::PlanContext;
use kfuse_gpu::GpuSpec;
use kfuse_ir::builder::ProgramBuilder;
use kfuse_ir::{Expr, Program};
use kfuse_search::{GreedySolver, HggaConfig, HggaHierSolver, HggaSolver, PartitionMode};
use kfuse_verify::check_plan;
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn prepared(p: &Program) -> PlanContext {
    let gpu = GpuSpec::k20x();
    let (_, ctx) = prepare(p, &gpu, gpu.default_precision());
    ctx
}

fn quick_config(seed: u64) -> HggaConfig {
    HggaConfig {
        population: 16,
        max_generations: 12,
        stall_generations: 6,
        seed,
        ..HggaConfig::default()
    }
}

/// The six built-in workloads `kfuse solve` accepts by name.
fn builtins() -> Vec<(&'static str, Program)> {
    let quickstart = {
        let mut pb = ProgramBuilder::new("quickstart", [256, 128, 16]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.build()
    };
    vec![
        ("quickstart", quickstart),
        ("rk3", kfuse_workloads::scale_les::rk_core([1280, 32, 32])),
        (
            "fig3",
            kfuse_workloads::motivating::program([1280, 32, 32]).0,
        ),
        ("scale-les", kfuse_workloads::scale_les::full()),
        ("homme", kfuse_workloads::homme::full()),
        (
            "suite",
            kfuse_workloads::TestSuite::generate(&kfuse_workloads::SuiteParams::default()),
        ),
    ]
}

/// `--partition off` is a pure delegation: same plan, same objective bits,
/// on every built-in workload.
#[test]
fn partition_off_matches_flat_on_every_builtin() {
    let model = ProposedModel::default();
    for (name, program) in builtins() {
        let ctx = prepared(&program);
        let hier = HggaHierSolver {
            config: quick_config(17),
            partition: PartitionMode::Off,
        };
        let flat = HggaSolver {
            config: quick_config(17),
        };
        let a = hier.solve(&ctx, &model);
        let b = flat.solve(&ctx, &model);
        assert_eq!(a.plan, b.plan, "{name}: plans must be identical");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{name}: objective must match bit for bit"
        );
    }
}

/// A fixed seed pins the whole hierarchical trajectory regardless of the
/// rayon thread count the region solves are scheduled on.
#[test]
fn hier_is_deterministic_across_thread_counts() {
    let program = kfuse_workloads::synth::clustered(4, 12, 0.3);
    let ctx = prepared(&program);
    let model = ProposedModel::default();
    let solver = HggaHierSolver {
        config: quick_config(23),
        partition: PartitionMode::MaxRegion(16),
    };
    let baseline = solver.solve(&ctx, &model);
    assert!(baseline.objective.is_finite());
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let out = pool.install(|| solver.solve(&ctx, &model));
        assert_eq!(
            out.plan, baseline.plan,
            "plan diverged at {threads} threads"
        );
        assert_eq!(
            out.objective.to_bits(),
            baseline.objective.to_bits(),
            "objective diverged at {threads} threads"
        );
    }
}

/// Cutting a program into regions of at most 64 kernels may cost at most
/// 2 % of the flat solver's objective for the same seed (`Auto` delegates
/// to the flat path below 200 kernels, so the decomposition is forced).
/// Objectives are deterministic per seed, so this is an exact comparison,
/// not a timing one.
///
/// The GA config is the smallest at which the flat search beats the greedy
/// plan on synth60 (0.994x), which is what gives the bound teeth: the
/// hierarchical path carries a whole-program greedy floor and the flat one
/// does not, so under a smaller budget (`quick_config`: ratio 0.81) the
/// assertion would be met by that floor alone, which the proptest below
/// already covers. Here the ratios are 1.006 and 0.926.
#[test]
fn forced_decomposition_stays_within_two_percent_of_flat() {
    let model = ProposedModel::default();
    let config = HggaConfig {
        population: 40,
        max_generations: 60,
        stall_generations: 15,
        seed: 17,
        ..HggaConfig::default()
    };
    for (name, program) in [
        ("synth60", kfuse_workloads::synth::scaling(60)),
        ("scale-les", kfuse_workloads::scale_les::full()),
    ] {
        let ctx = prepared(&program);
        let flat = HggaSolver {
            config: config.clone(),
        }
        .solve(&ctx, &model);
        let hier = HggaHierSolver {
            config: config.clone(),
            partition: PartitionMode::MaxRegion(HggaHierSolver::DEFAULT_MAX_REGION),
        }
        .solve(&ctx, &model);
        for (which, out) in [("flat", &flat), ("hier", &hier)] {
            let report = check_plan(&ctx.info, &out.plan, Some(&model));
            assert!(
                report.is_clean(),
                "{name}: verifier found errors in the {which} plan: {:?}",
                report.diagnostics
            );
        }
        assert!(
            hier.objective <= 1.02 * flat.objective,
            "{name}: forced decomposition {} is more than 2% above flat {}",
            hier.objective,
            flat.objective
        );
    }
}

/// The folded registry reports the work every region solve did, whichever
/// of its two sub-solves supplied the plan: each solved region ran the GA
/// for at least one generation and its greedy floor for at least one
/// sweep (a solve that kept only the winner's snapshot lost the other's).
#[test]
fn region_counters_sum_ga_and_floor() {
    use kfuse_obs::Counter;
    let program = kfuse_workloads::by_name("synth300").expect("clustered 300");
    let ctx = prepared(&program);
    let out = HggaHierSolver {
        config: quick_config(103),
        partition: PartitionMode::Auto,
    }
    .solve(&ctx, &ProposedModel::default());
    let regions = out.metrics.get(Counter::RegionsSolved);
    assert!(
        regions >= 2,
        "clustered 300 must decompose ({regions} regions)"
    );
    assert!(out.metrics.get(Counter::Generations) >= regions);
    assert!(out.metrics.get(Counter::GreedySweeps) >= regions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forced decompositions on random programs: the accepted plan always
    /// passes the independent verifier and never scores worse than the
    /// greedy baseline (the hierarchical path carries both a per-region
    /// and a whole-program greedy floor).
    #[test]
    fn hier_plans_verify_and_never_lose_to_greedy(
        seed in 0u64..10_000,
        kernels in 10usize..30,
    ) {
        let program = generate(&SynthConfig {
            kernels,
            seed,
            ..Default::default()
        });
        let ctx = prepared(&program);
        let model = ProposedModel::default();
        let solver = HggaHierSolver {
            config: quick_config(seed),
            partition: PartitionMode::MaxRegion(8),
        };
        let out = solver.solve(&ctx, &model);
        prop_assert!(out.objective.is_finite());

        let report = check_plan(&ctx.info, &out.plan, Some(&model));
        prop_assert!(
            report.is_clean(),
            "verifier found errors in a seed-{seed} hier plan: {:?}",
            report.diagnostics
        );

        let greedy = GreedySolver.solve(&ctx, &model);
        prop_assert!(
            out.objective <= greedy.objective + 1e-12,
            "hier {} must not lose to greedy {}",
            out.objective,
            greedy.objective
        );
    }
}
