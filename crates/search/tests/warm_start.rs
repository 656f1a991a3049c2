//! Integration tests for the cross-solve reuse layer: cold-path
//! determinism, exact-hit serving, a cache that leaves every other solve
//! untouched, and the anytime budget floor — every served or solved plan
//! re-checked through the independent verifier.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{prepare, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_gpu::GpuSpec;
use kfuse_ir::{Expr, KernelId, Program};
use kfuse_obs::{Counter, ObsHandle};
use kfuse_search::plancache::{CacheEntry, PlanCache, CACHE_VERSION};
use kfuse_search::{
    Evaluator, GreedySolver, HggaConfig, HggaHierSolver, PartitionMode, WarmSolver,
};
use kfuse_verify::CheckerTables;
use std::path::PathBuf;
use std::sync::Mutex;
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

/// A kernel chain k0 → k1 → k2, a host sync, then k3 and k4 sharing X;
/// eight wide-stencil kernels whose union overflows SMEM; and two pairs
/// whose groups {k0, k2} and {k1, k3} depend on each other.
fn planted_programs() -> [Program; 3] {
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;

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
    let structured = pb.build();

    let mut pb = ProgramBuilder::new("smem_heavy", [512, 256, 4]);
    pb.launch(32, 32);
    let inputs: Vec<_> = (0..8).map(|i| pb.array(format!("I{i}"))).collect();
    for i in 0..8 {
        let out = pb.array(format!("O{i}"));
        let mut e = Expr::lit(0.0);
        for &inp in &inputs {
            e = e + Expr::at(inp) + Expr::load(inp, Offset::new(-1, 0, 0));
        }
        pb.kernel(format!("k{i}")).write(out, e).build();
    }
    let smem_heavy = pb.build();

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
    [structured, smem_heavy, pb.build()]
}

/// An exact cache entry for `ctx` holding `groups`, whatever they are.
fn planted_entry(ctx: &PlanContext, groups: Vec<Vec<u32>>) -> CacheEntry {
    let identity = ctx.identity();
    CacheEntry {
        version: CACHE_VERSION,
        fingerprint: identity.fingerprint,
        program: ctx.info.name.clone(),
        gpu: ctx.info.gpu.name.clone(),
        precision: format!("{:?}", ctx.info.precision),
        n_kernels: ctx.n_kernels() as u32,
        objective: 1e-9,
        kernel_sigs: identity.signatures.to_vec(),
        groups,
        region_fps: Vec::new(),
    }
}

/// A parseable but wrong plan behind an exact hit is never served, with
/// the verifier's tables built per call or kept: a repeated or missing
/// kernel, a sync split, a path-closure violation, an SMEM overflow, an
/// unprofitable merge and a cycle between two groups. A right plan behind
/// the same hit is served with the objective the search scores it at.
#[test]
fn a_planted_wrong_plan_behind_an_exact_hit_is_never_served() {
    let model = ProposedModel::default();
    let [structured, smem_heavy, crossed] = planted_programs().map(|p| prepared(&p));
    let scale_les = prepared(&kfuse_workloads::by_name("scale-les").unwrap());
    let n = scale_les.n_kernels() as u32;
    let unprofitable = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| [a, b]))
        .find(|&[a, b]| {
            let group = [KernelId(a), KernelId(b)];
            ctx_rejects_only_profit(&scale_les, &model, &group)
        })
        .expect("SCALE-LES has a structurally fine, unprofitable pair");
    let mut unprofitable_groups = vec![unprofitable.to_vec()];
    unprofitable_groups.extend(
        (0..n)
            .filter(|k| !unprofitable.contains(k))
            .map(|k| vec![k]),
    );

    let cases: [(&str, &PlanContext, Vec<Vec<u32>>); 7] = [
        (
            "repeated kernel",
            &structured,
            vec![vec![0, 1], vec![1, 2], vec![3], vec![4]],
        ),
        (
            "missing kernel",
            &structured,
            vec![vec![0, 1], vec![3], vec![4]],
        ),
        (
            "sync split",
            &structured,
            vec![vec![0], vec![1], vec![2, 3], vec![4]],
        ),
        (
            "path closure",
            &structured,
            vec![vec![0, 2], vec![1], vec![3], vec![4]],
        ),
        ("smem overflow", &smem_heavy, vec![(0..8).collect()]),
        ("unprofitable", &scale_les, unprofitable_groups),
        ("condensation cycle", &crossed, vec![vec![0, 2], vec![1, 3]]),
    ];
    let solver = WarmSolver::new(quick_hier(7, PartitionMode::Off), None, None);
    let serve = |ctx: &PlanContext, groups: Vec<Vec<u32>>, kept: bool| {
        let dir = tmpdir("planted");
        let mut cache = PlanCache::open(
            &dir,
            &ctx.info.gpu.name,
            &format!("{:?}", ctx.info.precision),
        );
        cache.insert(planted_entry(ctx, groups)).unwrap();
        let tables = CheckerTables::new(&ctx.info);
        let tables = kept.then_some(&tables);
        let out = solver.serve_exact(
            ctx,
            tables,
            &model,
            ObsHandle::disabled(),
            &Mutex::new(cache),
        );
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    for (name, ctx, groups) in cases {
        for kept in [false, true] {
            assert!(
                serve(ctx, groups.clone(), kept).is_none(),
                "{name} was served"
            );
        }
    }
    // The control: the crossed groups apart, and the greedy plans.
    for (ctx, groups) in [
        (&crossed, vec![vec![0, 2], vec![1], vec![3]]),
        (
            &scale_les,
            groups_of(&GreedySolver.solve(&scale_les, &model).plan),
        ),
        (
            &structured,
            groups_of(&GreedySolver.solve(&structured, &model).plan),
        ),
    ] {
        let plan = FusionPlan::new(
            groups
                .iter()
                .map(|g| g.iter().map(|&k| KernelId(k)).collect())
                .collect(),
        );
        let scored = Evaluator::new(ctx, &model).plan(&plan);
        for kept in [false, true] {
            let out = serve(ctx, groups.clone(), kept).expect("a right plan is served");
            assert_eq!(out.plan, plan);
            assert_eq!(out.objective.to_bits(), scored.to_bits());
            assert_eq!(out.metrics.get(Counter::CacheHits), 1);
        }
    }
}

/// True when `group` passes every group rule but profitability.
fn ctx_rejects_only_profit(ctx: &PlanContext, model: &ProposedModel, group: &[KernelId]) -> bool {
    ctx.check_group(group, 0)
        .is_ok_and(|spec| ctx.check_profitable(&spec, model, 0).is_err())
}

fn groups_of(plan: &FusionPlan) -> Vec<Vec<u32>> {
    plan.groups
        .iter()
        .map(|g| g.iter().map(|k| k.0).collect())
        .collect()
}
