//! One hand-crafted fixture per constraint of the Fig. 4 system
//! (1.1–1.7), each asserting the specific `KF` code the verifier emits —
//! plus the §II-C restrictions, condensation, hazard analysis, and the
//! field-for-field equivalence of the verifier's independent spec
//! synthesis with `GroupSpec::synthesize`.

use kfuse_core::metadata::ProgramInfo;
use kfuse_core::model::{PerfModel, ProposedModel};
use kfuse_core::pipeline;
use kfuse_core::plan::{FusionPlan, PlanError, ScoreScratch};
use kfuse_core::spec::GroupSpec;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::builder::ProgramBuilder;
use kfuse_ir::stencil::Offset;
use kfuse_ir::{ArrayId, Expr, KernelId, Program};
use kfuse_verify::{check_plan, diag, PlanChecker, Span};

/// A chain k0 → k1 → k2 (arrays A→B→C→D, k1 reads B at radius 1) plus an
/// unrelated same-epoch pair k3, k4 over X/Y/Z.
fn chain_and_pair() -> Program {
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
    pb.kernel("k3")
        .write(y, Expr::at(x) + Expr::lit(3.0))
        .build();
    pb.kernel("k4")
        .write(z, Expr::at(x) - Expr::lit(1.0))
        .build();
    pb.build()
}

fn info_of(p: &Program, gpu: &GpuSpec) -> ProgramInfo {
    ProgramInfo::extract(p, gpu, FpPrecision::Double)
}

/// A model that never projects a speedup: every fused group is exactly as
/// slow as the sum of its members. Constraint 1.1 demands *strictly*
/// faster, so any multi-member group is unprofitable under it.
struct NoGainModel;
impl PerfModel for NoGainModel {
    fn name(&self) -> &'static str {
        "no-gain"
    }
    fn project(&self, info: &ProgramInfo, spec: &GroupSpec) -> f64 {
        spec.members.iter().map(|&k| info.meta(k).runtime_s).sum()
    }
}

#[test]
fn kf0001_unprofitable_group() {
    let p = chain_and_pair();
    let info = info_of(&p, &GpuSpec::k20x());
    let plan = FusionPlan::new(vec![
        vec![KernelId(0)],
        vec![KernelId(1)],
        vec![KernelId(2)],
        vec![KernelId(3), KernelId(4)],
    ]);
    let r = check_plan(&info, &plan, Some(&NoGainModel));
    assert!(r.has_code(diag::KF_UNPROFITABLE));
    // The same group is profitable under the paper's projection model.
    let r = check_plan(&info, &plan, Some(&ProposedModel::default()));
    assert!(r.is_clean(), "unexpected findings:\n{}", r.render_human());
}

#[test]
fn kf0002_kernel_not_covered() {
    let p = chain_and_pair();
    let info = info_of(&p, &GpuSpec::k20x());
    // k4 missing from the plan.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(1)],
        vec![KernelId(2)],
        vec![KernelId(3)],
    ]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_KERNEL_MISSING));
}

#[test]
fn kf0003_path_closure_names_the_sandwiched_kernel() {
    let p = chain_and_pair();
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(2)],
        vec![KernelId(1)],
        vec![KernelId(3)],
        vec![KernelId(4)],
    ]);
    let r = check_plan(&ctx.info, &plan, None);
    assert!(r.has_code(diag::KF_PATH_CLOSURE));
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == diag::KF_PATH_CLOSURE)
        .unwrap();
    assert_eq!(d.span.kernel, Some(1), "violator is K1");
    // Cross-check: the search-side validator agrees, naming the same kernel.
    match ctx.validate(&plan) {
        Err(PlanError::PathClosure { violator, .. }) => assert_eq!(violator, KernelId(1)),
        other => panic!("core validator disagrees: {other:?}"),
    }
}

#[test]
fn kf0004_duplicate_and_unknown_kernels() {
    let p = chain_and_pair();
    let info = info_of(&p, &GpuSpec::k20x());
    // k1 covered twice.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(1)],
        vec![KernelId(1), KernelId(2)],
        vec![KernelId(3)],
        vec![KernelId(4)],
    ]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_KERNEL_DUPLICATED));
    // Unknown kernel id.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(9)],
        vec![KernelId(1)],
        vec![KernelId(2)],
        vec![KernelId(3)],
        vec![KernelId(4)],
    ]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_KERNEL_DUPLICATED));
}

#[test]
fn kf0005_zero_kinship_group() {
    let p = chain_and_pair();
    let info = info_of(&p, &GpuSpec::k20x());
    // k2 (A/B/C/D component) with k4 (X/Y/Z component), same epoch.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0)],
        vec![KernelId(1)],
        vec![KernelId(2), KernelId(4)],
        vec![KernelId(3)],
    ]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_KINSHIP));
}

/// Eight kernels, each reading eight shared radius-1 inputs on a 32×32
/// block: one group needs ≈72 KiB of padded SMEM, over the K20X's 48 KiB.
fn smem_heavy() -> Program {
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
    pb.build()
}

#[test]
fn kf0006_smem_overflow() {
    let p = smem_heavy();
    let info = info_of(&p, &GpuSpec::k20x());
    let plan = FusionPlan::new(vec![(0..8).map(KernelId).collect()]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_SMEM_OVERFLOW));
    // The hypothetical 128 KiB device accepts the same group.
    let info128 = info_of(&p, &GpuSpec::hypothetical_smem(128));
    let r = check_plan(&info128, &plan, None);
    assert!(!r.has_code(diag::KF_SMEM_OVERFLOW));
}

#[test]
fn kf0007_register_overflow() {
    // Two kernels sharing 80 zero-radius inputs: Eq. 6 projects
    // 12 + 2·82 + live + 80 staging + 2 registers — far over 255.
    let mut pb = ProgramBuilder::new("reg_heavy", [96, 32, 4]);
    let inputs: Vec<ArrayId> = (0..80).map(|i| pb.array(format!("I{i}"))).collect();
    for i in 0..2 {
        let out = pb.array(format!("O{i}"));
        let mut e = Expr::lit(0.0);
        for &inp in &inputs {
            e = e + Expr::at(inp);
        }
        pb.kernel(format!("k{i}")).write(out, e).build();
    }
    let p = pb.build();
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(1)]]);
    let r = check_plan(&ctx.info, &plan, None);
    assert!(r.has_code(diag::KF_REG_OVERFLOW), "{}", r.render_human());
    // Cross-check against the search-side validator.
    assert!(matches!(
        ctx.validate(&plan),
        Err(PlanError::RegOverflow { .. })
    ));
}

#[test]
fn kf0008_fusion_across_host_sync() {
    let mut pb = ProgramBuilder::new("synced", [96, 32, 4]);
    let [a, b, c] = pb.arrays(["A", "B", "C"]);
    pb.kernel("k0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .build();
    pb.host_sync();
    pb.kernel("k1").write(c, Expr::at(b)).build();
    let p = pb.build();
    let info = info_of(&p, &GpuSpec::k20x());
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(1)]]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_SYNC_SPLIT));
}

#[test]
fn kf0009_fusion_across_streams() {
    let mut pb = ProgramBuilder::new("streams", [96, 32, 4]);
    let a = pb.array("A");
    let [b, c] = pb.arrays(["B", "C"]);
    pb.kernel("s0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .build();
    pb.stream(1);
    pb.kernel("s1")
        .write(c, Expr::at(a) * Expr::lit(2.0))
        .build();
    let p = pb.build();
    let info = info_of(&p, &GpuSpec::k20x());
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(1)]]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_STREAM_SPLIT));
}

#[test]
fn kf0010_condensation_cycle() {
    // k0 -> k1 via X, k2 -> k3 via Y; groups {k0,k3} and {k1,k2} order
    // each other mutually.
    let mut pb = ProgramBuilder::new("cyc", [96, 32, 4]);
    let [x, y] = pb.arrays(["X", "Y"]);
    let [i0, i1, o0, o1] = pb.arrays(["I0", "I1", "O0", "O1"]);
    pb.kernel("k0").write(x, Expr::at(i0)).build();
    pb.kernel("k1").write(o0, Expr::at(x)).build();
    pb.kernel("k2").write(y, Expr::at(i1)).build();
    pb.kernel("k3").write(o1, Expr::at(y)).build();
    let p = pb.build();
    let info = info_of(&p, &GpuSpec::k20x());
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(3)],
        vec![KernelId(1), KernelId(2)],
    ]);
    let r = check_plan(&info, &plan, None);
    assert!(r.has_code(diag::KF_CONDENSATION_CYCLE));
}

#[test]
fn kf0011_empty_group_is_named_and_rejected_by_the_core_validator() {
    // The identity plan with an empty third group: one error naming that
    // group, and the core's partition check rejects it the same way.
    let p = chain_and_pair();
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let mut plan = FusionPlan::identity(p.kernels.len());
    plan.groups.insert(2, Vec::new());
    let r = check_plan(&ctx.info, &plan, Some(&ProposedModel::default()));
    assert_eq!(r.error_count(), 1, "{}", r.render_human());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, diag::KF_EMPTY_GROUP);
    assert_eq!(d.span, Span::group(2));
    assert_eq!(d.explanation, "group 2 is empty");
    let err = PlanError::EmptyGroup { group: 2 };
    assert_eq!(ctx.validate(&plan).unwrap_err(), err);
    let model = ProposedModel::default();
    let scratch = &mut ScoreScratch::new();
    assert_eq!(
        ctx.check_and_score(&plan, &model, scratch).unwrap_err(),
        err
    );
}

#[test]
fn identity_plan_verdicts_match_the_core_validator() {
    let model = ProposedModel::default();
    for p in [chain_and_pair(), smem_heavy()] {
        let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let plan = FusionPlan::identity(p.kernels.len());
        let r = check_plan(&ctx.info, &plan, Some(&model));
        // smem_heavy's singletons each overflow SMEM on the K20X: the
        // identity plan is *legitimately* infeasible there, and both
        // implementations must say so.
        assert_eq!(
            r.is_clean(),
            ctx.validate(&plan).is_ok(),
            "{}: {}",
            p.name,
            r.render_human()
        );
    }
    let chain = chain_and_pair();
    let info = info_of(&chain, &GpuSpec::k20x());
    let r = check_plan(&info, &FusionPlan::identity(5), Some(&model));
    assert!(r.is_clean() && r.is_empty(), "{}", r.render_human());
}

/// The verifier's independent spec synthesis must agree with the core's
/// `GroupSpec::synthesize` on every field, including the RO-cache
/// demotion path — otherwise the capacity and profitability checks would
/// drift from what the search actually evaluates.
#[test]
fn independent_spec_synthesis_matches_core() {
    let mut gpus = vec![GpuSpec::k20x(), GpuSpec::hypothetical_smem(128)];
    let mut ro = GpuSpec::k20x();
    ro.use_readonly_cache = true;
    gpus.push(ro);
    let chain = chain_and_pair();
    let heavy = smem_heavy();
    let cases: Vec<(&Program, Vec<Vec<KernelId>>)> = vec![
        (
            &chain,
            vec![
                vec![KernelId(0)],
                vec![KernelId(0), KernelId(1)],
                vec![KernelId(0), KernelId(1), KernelId(2)],
                vec![KernelId(3), KernelId(4)],
            ],
        ),
        (
            &heavy,
            vec![
                (0..8).map(KernelId).collect(),
                (0..4).map(KernelId).collect(),
                vec![KernelId(2)],
            ],
        ),
    ];
    for gpu in &gpus {
        for (p, groups) in &cases {
            let info = info_of(p, gpu);
            let checker = PlanChecker::new(&info);
            for g in groups {
                let ours = checker.derive_spec(g);
                let core = GroupSpec::synthesize(&info, g);
                assert_eq!(
                    ours.members, core.members,
                    "members ({}, {})",
                    p.name, gpu.name
                );
                assert_eq!(
                    ours.pivots, core.pivots,
                    "pivots ({}, {})",
                    p.name, gpu.name
                );
                assert_eq!(ours.barrier_before, core.barrier_before);
                assert_eq!(ours.smem_bytes, core.smem_bytes);
                assert_eq!(ours.projected_regs, core.projected_regs);
                assert_eq!(ours.flops, core.flops);
                assert_eq!(ours.halo_bytes, core.halo_bytes);
                assert_eq!(ours.ro_bytes, core.ro_bytes);
                assert_eq!(ours.active_threads, core.active_threads);
                assert_eq!(ours.complex, core.complex);
            }
        }
    }
}
