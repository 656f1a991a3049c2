//! Differential property tests of the one synthesis sweep's lane
//! isolation: a candidate's check + synthesis + projection score is bit
//! for bit the same alone (fill 1), in its own batch, and at every lane
//! position among random batch-mates — on every GPU table, every model,
//! and every ragged fill 1..=8 — and it is the verifier's independent
//! [`PlanChecker::derive_spec`] → `project` → profitability gate; each
//! synthesized lane also agrees field-for-field with `derive_spec`.

use kfuse_core::batch::{score_into, synthesize_batch, BatchScratch, CandidateBatch, LANES};
use kfuse_core::model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
use kfuse_core::pipeline::prepare;
use kfuse_core::plan::PlanContext;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
use kfuse_obs::Counter;
use kfuse_search::eval::Evaluator;
use kfuse_verify::PlanChecker;
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn gpus() -> [GpuSpec; 3] {
    [GpuSpec::k20x(), GpuSpec::k40(), GpuSpec::gtx750ti()]
}

fn models() -> [Box<dyn PerfModel>; 3] {
    [
        Box::new(RooflineModel),
        Box::new(SimpleModel),
        Box::new(ProposedModel::default()),
    ]
}

fn context(kernels: usize, seed: u64, gpu: &GpuSpec) -> PlanContext {
    let cfg = SynthConfig {
        kernels,
        seed,
        ..Default::default()
    };
    let p = generate(&cfg);
    let (_, ctx) = prepare(&p, gpu, FpPrecision::Double);
    ctx
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random group of 1..=6 distinct kernels; includes
/// structurally infeasible and unprofitable candidates on purpose — their
/// verdict must not depend on the batch either.
fn random_group(n: usize, salt: u64) -> Vec<KernelId> {
    let len = 1 + (splitmix64(salt) as usize % 6).min(n - 1);
    let mut g: Vec<KernelId> = (0..len as u64)
        .map(|j| KernelId((splitmix64(salt ^ (j * 0x9e37)) % n as u64) as u32))
        .collect();
    g.sort_unstable();
    g.dedup();
    g
}

/// The oracle of one candidate's score: the core's structural check, then
/// the verifier's `derive_spec` through the capacity limits (1.6, 1.7),
/// the model's `project` and the profitability gate (1.1).
fn oracle(ev: &Evaluator<'_>, checker: &PlanChecker, g: &[KernelId], bs: &mut BatchScratch) -> f64 {
    let ctx = ev.ctx;
    if ctx.check_group_structure(g, 0, bs).is_err() {
        return f64::INFINITY;
    }
    let spec = checker.derive_spec(g);
    let gpu = &ctx.info.gpu;
    if spec.smem_bytes > u64::from(gpu.smem_per_smx)
        || spec.projected_regs > gpu.max_regs_per_thread
    {
        return f64::INFINITY;
    }
    let t = ev.model.project(&ctx.info, &spec);
    if g.len() >= 2 && (t >= ctx.info.original_sum(g) || t.is_nan()) {
        return f64::INFINITY;
    }
    t
}

/// Lane isolation, with the verifier as every lane's oracle: each
/// candidate of `batch` scores the same in `batch`, alone, and at every
/// lane position of a full batch whose other lanes hold random
/// structure-passing groups (a mate that fails the structural check would
/// take no lane, so a singleton stands in for it). Scores are compared
/// with `total_cmp`, so INF == INF passes and any ULP drift fails.
fn assert_lanes_isolated(ev: &Evaluator<'_>, batch: &CandidateBatch, salt: u64, what: &str) {
    let checker = PlanChecker::new(&ev.ctx.info);
    let n = ev.ctx.n_kernels();
    let mut bs = BatchScratch::new();
    let mut times = Vec::new();
    let stats = score_into(ev.ctx, ev.model, batch, &mut bs, &mut times);
    assert_eq!(times.len(), batch.len(), "{what}: one time per candidate");
    assert!(stats.batches >= 1 || batch.is_empty(), "{what}: stats");
    let mut probe = CandidateBatch::new();
    let mut got = Vec::new();
    for (i, &batched) in times.iter().enumerate() {
        let g = batch.group(i);
        let want = oracle(ev, &checker, g, &mut bs);
        assert!(
            want.total_cmp(&batched).is_eq(),
            "{what}: candidate {i} ({g:?}) batched {batched} != verifier {want}",
        );
        probe.clear();
        probe.push(g);
        score_into(ev.ctx, ev.model, &probe, &mut bs, &mut got);
        assert!(
            got[0].total_cmp(&batched).is_eq(),
            "{what}: candidate {i} ({g:?}) alone {} != batched {batched}",
            got[0],
        );
        for lane in 0..LANES {
            probe.clear();
            for j in 0..LANES {
                if j == lane {
                    probe.push(g);
                    continue;
                }
                let mate = random_group(
                    n,
                    splitmix64(salt ^ ((i * LANES + j) as u64) << 8 ^ lane as u64),
                );
                if ev.ctx.check_group_structure(&mate, 0, &mut bs).is_ok() {
                    probe.push(&mate);
                } else {
                    probe.push(&mate[..1]);
                }
            }
            score_into(ev.ctx, ev.model, &probe, &mut bs, &mut got);
            assert!(
                got[lane].total_cmp(&batched).is_eq(),
                "{what}: candidate {i} ({g:?}) at lane {lane} {} != batched {batched}",
                got[lane],
            );
        }
    }
}

#[test]
fn lanes_are_isolated_on_every_gpu_model_and_fill() {
    for gpu in &gpus() {
        let ctx = context(14, 0xD1FF ^ splitmix64(gpu.name.len() as u64), gpu);
        let n = ctx.n_kernels();
        for (mi, model) in models().iter().enumerate() {
            let ev = Evaluator::new(&ctx, model.as_ref());
            // Every ragged fill 1..=8, plus multi-sweep batches whose
            // final sweep lands on each remainder.
            for fill in 1usize..=8 {
                for base in [0usize, 8, 16] {
                    let mut batch = CandidateBatch::new();
                    for c in 0..base + fill {
                        batch.push(&random_group(
                            n,
                            splitmix64((mi * 1000 + fill * 64 + base + c) as u64),
                        ));
                    }
                    assert_lanes_isolated(
                        &ev,
                        &batch,
                        (mi * 100 + fill * 10 + base) as u64,
                        &format!("{} model {mi} fill {fill} base {base}", gpu.name),
                    );
                }
            }
        }
    }
}

#[test]
fn group_batch_matches_sequential_group_probes() {
    // Two independent evaluators over the same context: one probed
    // through the batched memo path, one sequentially. Duplicated
    // candidates within a batch exercise the in-batch dedupe; singletons
    // exercise the baseline bypass. Run twice so the second pass hits a
    // warm memo.
    for gpu in &gpus() {
        let ctx = context(16, 0xBA7C4 ^ splitmix64(gpu.name.len() as u64), gpu);
        let n = ctx.n_kernels();
        let model = ProposedModel::default();
        let batched = Evaluator::new(&ctx, &model);
        let sequential = Evaluator::new(&ctx, &model);
        let mut cands = CandidateBatch::new();
        let mut out = Vec::new();
        for round in 0..2u64 {
            cands.clear();
            for c in 0..40u64 {
                // Every third candidate repeats the previous one; every
                // fifth is a singleton.
                let salt = splitmix64(0xF00D ^ (c - (c % 3 == 2) as u64));
                if c % 5 == 4 {
                    cands.push(&[KernelId((salt % n as u64) as u32)]);
                } else {
                    cands.push(&random_group(n, salt));
                }
            }
            batched.group_batch(&cands, &mut out);
            assert_eq!(out.len(), cands.len());
            for (i, got) in out.iter().enumerate() {
                let want = sequential.group(cands.group(i)).time_s;
                assert!(
                    want.total_cmp(&got.time_s).is_eq(),
                    "{} round {round} candidate {i}: batched {} != sequential {want}",
                    gpu.name,
                    got.time_s
                );
            }
        }
        // The batched memo holds one entry per distinct multi-member key:
        // both evaluators agree on the miss count even though the batched
        // side saw in-batch duplicates.
        let misses = |ev: &Evaluator<'_>| ev.snapshot().get(Counter::MemoMisses);
        assert_eq!(misses(&batched), misses(&sequential));
    }
}

/// Every lane of `synthesize_batch` must agree field-for-field with the
/// verifier's independently written `derive_spec`, including ragged fills
/// 1..=8.
#[test]
fn lane_specs_match_verifier_derive_spec() {
    for gpu in &gpus() {
        let ctx = context(12, 0x5EC5 ^ splitmix64(gpu.name.len() as u64), gpu);
        let n = ctx.n_kernels();
        let checker = PlanChecker::new(&ctx.info);
        let mut scratch = BatchScratch::new();
        for fill in 1usize..=8 {
            let groups: Vec<Vec<KernelId>> = (0..fill)
                .map(|c| random_group(n, splitmix64((fill * 16 + c) as u64)))
                .collect();
            let cands: Vec<&[KernelId]> = groups.iter().map(Vec::as_slice).collect();
            let view = synthesize_batch(&ctx.synth, &ctx.info, &cands, &mut scratch);
            assert_eq!(view.fill(), fill);
            for (l, g) in groups.iter().enumerate() {
                let ours = view.lane_spec(l);
                let oracle = checker.derive_spec(g);
                let what = format!("{} fill {fill} lane {l}", gpu.name);
                assert_eq!(ours.members, oracle.members, "members {what}");
                assert_eq!(ours.pivots, oracle.pivots, "pivots {what}");
                assert_eq!(
                    ours.barrier_before, oracle.barrier_before,
                    "barriers {what}"
                );
                assert_eq!(ours.smem_bytes, oracle.smem_bytes, "smem {what}");
                assert_eq!(ours.projected_regs, oracle.projected_regs, "regs {what}");
                assert_eq!(ours.flops, oracle.flops, "flops {what}");
                assert_eq!(ours.halo_bytes, oracle.halo_bytes, "halo {what}");
                assert_eq!(ours.ro_bytes, oracle.ro_bytes, "ro {what}");
                assert_eq!(ours.active_threads, oracle.active_threads, "threads {what}");
                assert_eq!(ours.complex, oracle.complex, "complex {what}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workloads, random candidate mixes: lane isolation under the
    /// proposed model on all three GPU tables.
    #[test]
    fn lanes_are_isolated_on_random_workloads(
        seed in 0u64..10_000,
        kernels in 4usize..16,
    ) {
        for gpu in &gpus() {
            let ctx = context(kernels, seed, gpu);
            let model = ProposedModel::default();
            let ev = Evaluator::new(&ctx, &model);
            let mut batch = CandidateBatch::new();
            let count = 1 + (splitmix64(seed) % 23) as usize;
            for c in 0..count {
                batch.push(&random_group(
                    ctx.n_kernels(),
                    splitmix64(seed ^ (c as u64 * 0x9e37_79b9)),
                ));
            }
            assert_lanes_isolated(&ev, &batch, seed, &format!("{} seed {seed}", gpu.name));
        }
    }
}
