//! Differential property test for delta evaluation (ISSUE 3 satellite):
//! random sequences of crossover / mutate / local-search steps on random
//! synthetic workloads must yield objective values — and infeasibility
//! verdicts — bitwise identical to a from-scratch [`Evaluator::plan`] on
//! the converted [`FusionPlan`].

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::prepare;
use kfuse_core::plan::PlanContext;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_search::chromo::{Chromosome, OpScratch};
use kfuse_search::eval::Evaluator;
use kfuse_search::hgga::{crossover, local_search, mutate, random_chromosome};
use kfuse_workloads::synth::{generate, SynthConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn context(kernels: usize, seed: u64) -> PlanContext {
    let cfg = SynthConfig {
        kernels,
        seed,
        ..Default::default()
    };
    let p = generate(&cfg);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    ctx
}

/// The chromosome's incremental cost vs. a from-scratch plan evaluation.
/// `total_cmp` makes the comparison bitwise: INF == INF passes, NaN or any
/// ULP drift fails.
fn assert_delta_matches_full(ev: &Evaluator<'_>, ch: &Chromosome, what: &str) {
    let full = ev.plan(&ch.to_plan());
    assert!(
        full.total_cmp(&ch.cost()).is_eq(),
        "{what}: delta cost {} != full evaluation {full}",
        ch.cost()
    );
}

#[test]
fn delta_evaluation_matches_full_plan_eval_across_random_sequences() {
    let model = ProposedModel::default();
    let mut sequences = 0usize;
    for w in 0..32u64 {
        let ctx = context(12 + (w as usize % 5) * 4, 0xA11CE ^ (w * 7919));
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        for s in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(w * 1_000 + s);
            let mut a = random_chromosome(&ev, &mut rng, &mut scratch);
            let mut b = random_chromosome(&ev, &mut rng, &mut scratch);
            assert_delta_matches_full(&ev, &a, "random_chromosome a");
            assert_delta_matches_full(&ev, &b, "random_chromosome b");
            for step in 0..6 {
                let child = match rng.gen_range(0..3u8) {
                    0 => crossover(&ev, &a, &b, &mut rng, &mut scratch),
                    1 => mutate(&ev, a.clone(), &mut rng, &mut scratch),
                    _ => local_search(&ev, a.clone(), &mut rng, &mut scratch),
                };
                assert_delta_matches_full(
                    &ev,
                    &child,
                    &format!("workload {w} seq {s} step {step}"),
                );
                // Round-trip: importing the converted plan and sealing it
                // must reproduce the same plan at the same objective.
                let plan = child.to_plan();
                let mut back = Chromosome::from_plan(&plan, &ev);
                back.finalize(&ev, &mut scratch);
                assert!(
                    back.cost().total_cmp(&ev.plan(&plan)).is_eq() && back.to_plan() == plan,
                    "workload {w} seq {s} step {step}: from_plan round-trip"
                );
                b = std::mem::replace(&mut a, child);
            }
            sequences += 1;
        }
    }
    assert!(sequences >= 256, "only {sequences} sequences exercised");
}
