//! Differential testing: the independent `kfuse-verify` constraint checker
//! against BOTH plan evaluators — the memoized production `Evaluator` and
//! the unmemoized route, `PlanContext::objective` plus
//! `condensation_order`. For every generated plan the three must agree on
//! feasibility (`verifier clean <=> Evaluator finite <=> unmemoized
//! finite`), and where the plan is feasible both evaluators must return
//! the same objective bit for bit.
//!
//! 16 proptest cases x 32 plans each = 512 plans per run (>= the 500-plan
//! floor), spanning identity plans, greedy solutions, and random
//! label-assignment partitions that freely violate path closure, kinship,
//! capacity, and profitability.

use kernel_fusion::prelude::*;
use kfuse_core::fuse::condensation_order;
use kfuse_search::Evaluator;
use kfuse_verify::check_plan;
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn small_config(seed: u64, kernels: usize) -> SynthConfig {
    SynthConfig {
        name: format!("diff_{seed}"),
        kernels,
        arrays: kernels * 2,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob: 0.5,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed,
    }
}

/// Deterministic in-test RNG (the vendored proptest has no sample-from-seed
/// combinators for composite values).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random partition of `n` kernels: assign each kernel a label from a
/// pool of `n/2 + 1`, group kernels sharing a label. Always a valid exact
/// cover; everything else (closure, kinship, capacity, profitability) is
/// left to chance so infeasible plans are common.
fn random_partition(n: usize, state: &mut u64) -> FusionPlan {
    let pool = n / 2 + 1;
    let mut buckets: Vec<Vec<KernelId>> = vec![Vec::new(); pool];
    for k in 0..n {
        let label = (splitmix64(state) % pool as u64) as usize;
        buckets[label].push(KernelId(k as u32));
    }
    buckets.retain(|b| !b.is_empty());
    FusionPlan::new(buckets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three-way feasibility agreement on 32 plans per generated program.
    #[test]
    fn verifier_and_both_evaluators_agree(seed in 0u64..10_000, kernels in 4usize..14) {
        let p = generate(&small_config(seed, kernels));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (_, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let ev = Evaluator::new(&ctx, &model);
        // The unmemoized objective is finite only when every group is, so
        // the plan is feasible when its condensation is also acyclic.
        let unmemoized = |plan: &FusionPlan| {
            let t = ctx.objective(plan, &model);
            if condensation_order(plan, &ctx.exec).is_ok() { t } else { f64::INFINITY }
        };

        let mut plans = vec![
            FusionPlan::identity(ctx.n_kernels()),
            GreedySolver.solve(&ctx, &model).plan,
        ];
        let mut state = seed ^ 0xD1FF_EE00;
        for _ in 0..30 {
            plans.push(random_partition(ctx.n_kernels(), &mut state));
        }

        let mut infeasible = 0usize;
        for plan in &plans {
            let report = check_plan(&ctx.info, plan, Some(&model));
            let memoized = ev.plan(plan);
            let reference = unmemoized(plan);
            let feasible = memoized.is_finite();
            prop_assert!(
                feasible == reference.is_finite(),
                "memoized/unmemoized evaluators disagree on {:?}",
                plan
            );
            prop_assert!(
                !feasible || memoized.to_bits() == reference.to_bits(),
                "objective {} != unmemoized {} on {:?}",
                memoized,
                reference,
                plan
            );
            prop_assert!(
                report.is_clean() == feasible,
                "verifier disagrees with the evaluators on {:?}:\n{}",
                plan,
                report.render_human()
            );
            if !feasible {
                infeasible += 1;
            }
        }
        // The random partitions must actually exercise the infeasible side
        // for the agreement to mean anything.
        prop_assert!(infeasible < plans.len(), "every plan infeasible");
    }
}

/// The verifier's closure (its own hazard sweep, `u64` rows) and the
/// planner's order-of-execution graph answer every reachability query
/// alike: every ordered kernel pair of every built-in and of a 500-kernel
/// clustered program.
#[test]
fn verifier_reachability_equals_the_order_graph() {
    let gpu = GpuSpec::k20x();
    for name in [
        "quickstart",
        "fig3",
        "rk3",
        "scale-les",
        "homme",
        "suite",
        "synth60",
        "synth500",
    ] {
        let p = kfuse_workloads::by_name(name).unwrap();
        let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
        let checker = kfuse_verify::PlanChecker::new(&ctx.info);
        let n = ctx.n_kernels() as u32;
        let mut paths = 0usize;
        for a in (0..n).map(KernelId) {
            for b in (0..n).map(KernelId) {
                let ours = checker.reaches(a, b);
                assert_eq!(ours, ctx.exec.reaches(a, b), "{name}: {a} -> {b}");
                paths += usize::from(ours);
            }
        }
        assert!(paths > 0 || n < 3, "{name}: no hazard path at all");
    }
}
