//! Differential property tests for lane-batched candidate evaluation
//! (ISSUE 6 satellite): the batched check + synthesis + projection path
//! must be bitwise indistinguishable from the scalar [`SynthScratch`]
//! path on every GPU table, every model, and every ragged fill 1..=8 —
//! and each synthesized lane must agree field-for-field with the
//! verifier's independent [`PlanChecker::derive_spec`].

use kfuse_core::batch::{synthesize_batch, BatchScratch, CandidateBatch};
use kfuse_core::model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
use kfuse_core::pipeline::prepare;
use kfuse_core::plan::PlanContext;
use kfuse_core::synth::SynthScratch;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
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
/// structurally infeasible and unprofitable candidates on purpose — the
/// batched path must reproduce the scalar verdict for those too.
fn random_group(n: usize, salt: u64) -> Vec<KernelId> {
    let len = 1 + (splitmix64(salt) as usize % 6).min(n - 1);
    let mut g: Vec<KernelId> = (0..len as u64)
        .map(|j| KernelId((splitmix64(salt ^ (j * 0x9e37)) % n as u64) as u32))
        .collect();
    g.sort_unstable();
    g.dedup();
    g
}

/// `evaluate_uncached_batch` vs. per-candidate `evaluate_uncached`,
/// compared with `total_cmp` so INF == INF passes and any ULP drift
/// fails.
fn assert_batch_matches_scalar(ev: &Evaluator<'_>, batch: &CandidateBatch, what: &str) {
    let mut bs = BatchScratch::new();
    let mut ss = SynthScratch::new();
    let mut times = Vec::new();
    let stats = ev.evaluate_uncached_batch(batch, &mut bs, &mut times);
    assert_eq!(times.len(), batch.len(), "{what}: one time per candidate");
    assert!(stats.batches >= 1 || batch.is_empty(), "{what}: stats");
    for (i, &batched) in times.iter().enumerate() {
        let scalar = ev.evaluate_uncached(batch.group(i), &mut ss).time_s;
        assert!(
            scalar.total_cmp(&batched).is_eq(),
            "{what}: candidate {i} ({:?}) batched {batched} != scalar {scalar}",
            batch.group(i),
        );
    }
}

#[test]
fn batched_scoring_matches_scalar_on_every_gpu_model_and_fill() {
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
                    assert_batch_matches_scalar(
                        &ev,
                        &batch,
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
        assert_eq!(batched.evaluations(), sequential.evaluations());
    }
}

/// Every lane of `synthesize_batch` must agree field-for-field with the
/// verifier's independently written `derive_spec` — the same oracle the
/// scalar path is pinned against — including ragged fills 1..=8.
#[test]
fn lane_specs_match_verifier_derive_spec() {
    for gpu in &gpus() {
        let ctx = context(12, 0x5EC5 ^ splitmix64(gpu.name.len() as u64), gpu);
        let n = ctx.n_kernels();
        let checker = PlanChecker::new(&ctx.info);
        let mut scratch = BatchScratch::new();
        for fill in 1usize..=8 {
            let mut batch = CandidateBatch::new();
            for c in 0..fill {
                batch.push(&random_group(n, splitmix64((fill * 16 + c) as u64)));
            }
            let cands: Vec<usize> = (0..fill).collect();
            let view = synthesize_batch(&ctx.synth, &ctx.info, &batch, &cands, &mut scratch);
            assert_eq!(view.fill(), fill);
            for l in 0..fill {
                let ours = view.lane_spec(l);
                let oracle = checker.derive_spec(batch.group(l));
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

    /// Random workloads, random candidate mixes: batched == scalar
    /// bitwise under the proposed model on all three GPU tables.
    #[test]
    fn batched_scoring_matches_scalar_on_random_workloads(
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
            assert_batch_matches_scalar(&ev, &batch, &format!("{} seed {seed}", gpu.name));
        }
    }
}
