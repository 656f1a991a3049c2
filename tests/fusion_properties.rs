//! Property-based tests on the core invariants of the fusion system.

use kernel_fusion::prelude::*;
use kfuse_core::fuse::{apply_plan, condensation_order};
use kfuse_core::relax::relax_expandable;
use kfuse_ir::analysis;
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn small_config(seed: u64, kernels: usize, arrays: usize, dep_prob: f64) -> SynthConfig {
    SynthConfig {
        name: format!("prop_{seed}"),
        kernels,
        arrays,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated program is structurally valid.
    #[test]
    fn generated_programs_validate(seed in 0u64..1000, kernels in 4usize..16) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        prop_assert!(p.validate().is_ok());
    }

    /// The expandable-array relaxation never changes program semantics.
    #[test]
    fn relaxation_preserves_semantics(seed in 0u64..500, kernels in 4usize..14) {
        let p = generate(&small_config(seed, kernels, kernels, 0.6));
        let relaxed = relax_expandable(&p).program;
        prop_assert!(relaxed.validate().is_ok());

        let mut s_orig = DeviceState::default_init(&p);
        run_reference(&p, &mut s_orig);
        let mut s_rel = DeviceState::default_init(&relaxed);
        run_reference(&relaxed, &mut s_rel);
        // Original arrays must agree (copies carry intermediate
        // generations; the final generation stays in place).
        for a in 0..p.arrays.len() {
            let a = ArrayId(a as u32);
            prop_assert_eq!(s_orig.max_abs_diff(&s_rel, a), 0.0);
        }
    }

    /// Block-mode execution of the UNFUSED program equals reference mode
    /// (the original kernels are always coherent).
    #[test]
    fn unfused_block_mode_matches_reference(seed in 0u64..500, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let mut s_ref = DeviceState::default_init(&p);
        run_reference(&p, &mut s_ref);
        let mut s_blk = DeviceState::default_init(&p);
        run_block_mode(&p, &mut s_blk);
        for a in 0..p.arrays.len() {
            let a = ArrayId(a as u32);
            prop_assert_eq!(s_ref.max_abs_diff(&s_blk, a), 0.0);
        }
    }

    /// Any plan the greedy solver produces is feasible, realizable, and
    /// numerically exact after fusion.
    #[test]
    fn greedy_plans_fuse_correctly(seed in 0u64..300, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (relaxed, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let out = GreedySolver.solve(&ctx, &model);
        let specs = ctx.validate(&out.plan).expect("greedy plan validates");
        prop_assert!(condensation_order(&out.plan, &ctx.exec).is_ok());
        let fused = apply_plan(&relaxed, &ctx.info, &ctx.exec, &out.plan, &specs).unwrap();
        prop_assert!(fused.validate().is_ok());

        let mut s_ref = DeviceState::default_init(&relaxed);
        run_reference(&relaxed, &mut s_ref);
        let mut s_fused = DeviceState::default_init(&fused);
        run_block_mode(&fused, &mut s_fused);
        for a in 0..relaxed.arrays.len() {
            let a = ArrayId(a as u32);
            prop_assert_eq!(s_ref.max_abs_diff(&s_fused, a), 0.0);
        }
    }

    /// HGGA plans always satisfy the full constraint system, and their
    /// objective never exceeds the identity plan's.
    #[test]
    fn hgga_plans_are_feasible_and_improving(seed in 0u64..200, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (_, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let solver = HggaSolver {
            config: HggaConfig {
                population: 20,
                max_generations: 40,
                stall_generations: 12,
                seed,
                ..HggaConfig::default()
            },
        };
        let out = solver.solve(&ctx, &model);
        prop_assert!(ctx.validate(&out.plan).is_ok());
        let identity: f64 = ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
        prop_assert!(out.objective <= identity + 1e-12);
    }

    /// Every plan `hgga::solve` returns passes the independent
    /// `kfuse-verify` constraint checker with zero error diagnostics.
    #[test]
    fn hgga_plans_pass_independent_verifier(
        seed in 0u64..150,
        kernels in 4usize..12,
    ) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (_, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let solver = HggaSolver {
            config: HggaConfig {
                population: 20,
                max_generations: 40,
                stall_generations: 12,
                seed,
                ..HggaConfig::default()
            },
        };
        let out = solver.solve(&ctx, &model);
        let report = kfuse_verify::check_plan(&ctx.info, &out.plan, Some(&model));
        prop_assert!(
            report.is_clean(),
            "HGGA returned a plan the verifier rejects:\n{}",
            report.render_human()
        );
    }

    /// Traffic accounting conserves stores: fusion never eliminates a
    /// write to device memory.
    #[test]
    fn fusion_conserves_stores(seed in 0u64..300, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (relaxed, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let out = GreedySolver.solve(&ctx, &model);
        let specs = ctx.validate(&out.plan).unwrap();
        let fused = apply_plan(&relaxed, &ctx.info, &ctx.exec, &out.plan, &specs).unwrap();

        let stores = |prog: &Program| -> u64 {
            prog.kernels
                .iter()
                .map(|k| analysis::kernel_traffic(prog, k).store_elems)
                .sum()
        };
        prop_assert_eq!(stores(&relaxed), stores(&fused));
    }

    /// The measured (simulated) runtime of the fused program never falls
    /// below the bandwidth-ideal bound on its own traffic.
    #[test]
    fn simulated_time_respects_bandwidth_bound(seed in 0u64..300, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let timing = kfuse_sim::simulate_program(&gpu, &p, FpPrecision::Double);
        let ideal = timing.total_bytes(8) as f64 / (gpu.gmem_bw_gbps * 1e9);
        prop_assert!(timing.total_s >= ideal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A plan the evaluator scores finite always passes full validation
    /// and condensation ordering (evaluator/validator consistency).
    #[test]
    fn finite_evaluation_implies_valid_plan(seed in 0u64..200, kernels in 4usize..10) {
        use kfuse_search::Evaluator;
        let p = generate(&small_config(seed, kernels, kernels * 2, 0.5));
        let gpu = GpuSpec::k20x();
        let model = ProposedModel::default();
        let (_, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        let ev = Evaluator::new(&ctx, &model);
        // Random-ish plans from the greedy solver plus the identity.
        let plans = vec![
            FusionPlan::identity(ctx.n_kernels()),
            GreedySolver.solve(&ctx, &model).plan,
        ];
        for plan in plans {
            if ev.plan(&plan).is_finite() {
                prop_assert!(ctx.validate(&plan).is_ok());
                prop_assert!(condensation_order(&plan, &ctx.exec).is_ok());
            }
        }
    }
}
