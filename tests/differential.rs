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
//!
//! On every one of those plans, and on plans planted to break one rule
//! each, the one-pass `PlanContext::check_and_score` an exact cache hit
//! runs accepts exactly what `validate` plus a finite `Evaluator::plan`
//! accepted, with the same objective bit for bit.

use kernel_fusion::prelude::*;
use kfuse_core::fuse::condensation_order;
use kfuse_core::plan::PlanError;
use kfuse_ir::stencil::Offset;
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
            prop_assert!(
                one_pass_agrees(&ctx, &model, plan, memoized),
                "the one-pass check disagrees on {:?}",
                plan
            );
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

/// `check_and_score` against the steps it replaces: `Ok(x)` with `x` the
/// memoized objective bit for bit exactly when `validate` accepts and that
/// objective is finite; an error otherwise.
fn one_pass_agrees(
    ctx: &PlanContext,
    model: &ProposedModel,
    plan: &FusionPlan,
    memoized: f64,
) -> bool {
    let accepted = ctx.validate(plan).is_ok() && memoized.is_finite();
    match ctx.check_and_score(plan, model) {
        Ok(x) => accepted && x.to_bits() == memoized.to_bits(),
        Err(_) => !accepted,
    }
}

/// A chain k0 → k1 → k2, a host sync, then k3 and k4 sharing X.
fn structured() -> PlanContext {
    let mut pb = ProgramBuilder::new("structured", [96, 32, 4]);
    let [a, b, c, d] = pb.arrays(["A", "B", "C", "D"]);
    let [x, y, z] = pb.arrays(["X", "Y", "Z"]);
    pb.kernel("k0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .build();
    pb.kernel("k1")
        .write(c, Expr::load(b, Offset::new(1, 0, 0)))
        .build();
    pb.kernel("k2")
        .write(d, Expr::at(c) * Expr::lit(2.0))
        .build();
    pb.host_sync();
    pb.kernel("k3")
        .write(y, Expr::at(x) + Expr::lit(3.0))
        .build();
    pb.kernel("k4")
        .write(z, Expr::at(x) - Expr::lit(1.0))
        .build();
    prepared(&pb.build(), &GpuSpec::k20x())
}

/// Eight wide-stencil kernels over eight shared inputs: all eight in one
/// group stage about 72 KiB, past the K20X's 48 KiB.
fn smem_heavy() -> PlanContext {
    let mut pb = ProgramBuilder::new("smem_heavy", [512, 256, 4]);
    pb.launch(32, 32);
    let inputs: Vec<ArrayId> = (0..8).map(|i| pb.array(format!("I{i}"))).collect();
    for i in 0..8 {
        let out = pb.array(format!("O{i}"));
        let mut e = Expr::lit(0.0);
        for &inp in &inputs {
            e = e + Expr::at(inp) + Expr::load(inp, Offset::new(-1, 0, 0));
        }
        pb.kernel(format!("k{i}")).write(out, e).build();
    }
    prepared(&pb.build(), &GpuSpec::k20x())
}

/// Two fusable pairs whose groups depend on each other: k0 → k3 and
/// k1 → k2 cross between {k0, k2} and {k1, k3}, so each group is closed
/// and profitable but their condensation is a cycle.
fn crossed() -> PlanContext {
    let mut pb = ProgramBuilder::new("crossed", [256, 128, 8]);
    let [i, p, q, x, y] = pb.arrays(["I", "P", "Q", "X", "Y"]);
    let [o2, o3] = pb.arrays(["O2", "O3"]);
    pb.kernel("a0")
        .write(p, Expr::at(i) + Expr::lit(1.0))
        .write(x, Expr::at(i) * Expr::lit(2.0))
        .build();
    pb.kernel("b0")
        .write(q, Expr::at(i) - Expr::lit(1.0))
        .write(y, Expr::at(i) * Expr::lit(3.0))
        .build();
    pb.kernel("a1").write(o2, Expr::at(p) + Expr::at(y)).build();
    pb.kernel("b1").write(o3, Expr::at(q) + Expr::at(x)).build();
    prepared(&pb.build(), &GpuSpec::k20x())
}

fn prepared(p: &Program, gpu: &GpuSpec) -> PlanContext {
    pipeline::prepare(p, gpu, gpu.default_precision()).1
}

fn plan(groups: &[&[u32]]) -> FusionPlan {
    FusionPlan::new(
        groups
            .iter()
            .map(|g| g.iter().map(|&k| KernelId(k)).collect())
            .collect(),
    )
}

/// The first pair of SCALE-LES kernels that passes every group rule but
/// profitability, as a plan with everything else unfused.
fn unprofitable_pair(ctx: &PlanContext, model: &ProposedModel) -> FusionPlan {
    let n = ctx.n_kernels() as u32;
    for a in 0..n {
        for b in a + 1..n {
            let group = [KernelId(a), KernelId(b)];
            let Ok(spec) = ctx.check_group(&group, 0) else {
                continue;
            };
            if ctx.check_profitable(&spec, model, 0).is_err() {
                let mut groups = vec![group.to_vec()];
                groups.extend(
                    (0..n)
                        .filter(|&k| k != a && k != b)
                        .map(|k| vec![KernelId(k)]),
                );
                return FusionPlan::new(groups);
            }
        }
    }
    panic!("no structurally fine, unprofitable pair in SCALE-LES");
}

/// Plans planted to break one rule each: every step the one-pass check
/// replaced rejects them (or scores them infinite), the verifier does,
/// and so does the one-pass check — with the rule's own error.
#[test]
fn the_one_pass_check_rejects_each_planted_plan_as_the_steps_did() {
    let model = ProposedModel::default();
    let structured = structured();
    let scale_les = prepared(
        &kfuse_workloads::by_name("scale-les").unwrap(),
        &GpuSpec::k20x(),
    );
    let crossed = crossed();
    let smem = smem_heavy();
    let cases: [(&str, &PlanContext, FusionPlan); 7] = [
        (
            "repeated kernel",
            &structured,
            plan(&[&[0, 1], &[1, 2], &[3], &[4]]),
        ),
        ("missing kernel", &structured, plan(&[&[0, 1], &[3], &[4]])),
        (
            "sync split",
            &structured,
            plan(&[&[0], &[1], &[2, 3], &[4]]),
        ),
        (
            "path closure",
            &structured,
            plan(&[&[0, 2], &[1], &[3], &[4]]),
        ),
        ("smem overflow", &smem, plan(&[&[0, 1, 2, 3, 4, 5, 6, 7]])),
        (
            "unprofitable",
            &scale_les,
            unprofitable_pair(&scale_les, &model),
        ),
        ("condensation cycle", &crossed, plan(&[&[0, 2], &[1, 3]])),
    ];
    for (name, ctx, plan) in cases {
        // The search only ever scores partitions.
        let memoized = match ctx.validate(&plan) {
            Ok(_) => Evaluator::new(ctx, &model).plan(&plan),
            Err(_) => f64::INFINITY,
        };
        assert!(!memoized.is_finite(), "{name}: the steps accepted it");
        assert!(one_pass_agrees(ctx, &model, &plan, memoized), "{name}");
        assert!(
            !check_plan(&ctx.info, &plan, Some(&model)).is_clean(),
            "{name}"
        );
        let err = ctx.check_and_score(&plan, &model).unwrap_err();
        let expected = match err {
            PlanError::NotPartition { .. } => name.ends_with("kernel"),
            PlanError::SyncSplit { .. } => name == "sync split",
            PlanError::PathClosure { .. } => name == "path closure",
            PlanError::SmemOverflow { .. } => name == "smem overflow",
            PlanError::Unprofitable { .. } => name == "unprofitable",
            PlanError::CondensationCycle => name == "condensation cycle",
            _ => false,
        };
        assert!(expected, "{name}: rejected for {err}");
    }
    // The crossed groups are fine on their own: only the cycle rejects.
    let apart = plan(&[&[0, 2], &[1], &[3]]);
    let memoized = Evaluator::new(&crossed, &model).plan(&apart);
    assert!(memoized.is_finite());
    assert_eq!(
        crossed.check_and_score(&apart, &model).map(f64::to_bits),
        Ok(memoized.to_bits())
    );
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
