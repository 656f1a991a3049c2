//! Search-layer scaling study on synthetic workloads of 20/40/60 kernels.
//! Every stage times a path the solvers execute:
//!
//! 1. **Miss path** — the memo-bypassed per-group evaluation unit
//!    (`Evaluator::evaluate_uncached`: SoA synthesis + view projection)
//!    against the materializing legacy unit, over the distinct groups of
//!    a fixed candidate-plan pool, plus a cold-memo solver run's miss
//!    accounting.
//! 2. **Lane-batched miss path** — the same group pool scored whole-batch
//!    through `Evaluator::evaluate_uncached_batch` (8-lane synthesis +
//!    batched projection), against the scalar SoA unit.
//! 3. **Island scaling** — HGGA wall-clock and solution quality at
//!    1/2/4/8 islands with everything else fixed.
//! 4. **Solver variants** — whole-search throughput (individuals scored
//!    per second) of the flat delta-evaluated chromosome solver against
//!    the retained Vec-of-Vecs reference loop, with memo hit rates and
//!    condensation-check counts per variant. Both trajectories are
//!    bit-identical (see the pinning tests), so any wall-clock delta is
//!    pure representation overhead.
//! 5. **Hierarchical partition-first scaling** — `hgga-hier` wall-clock
//!    on clustered programs of 1k/5k/10k kernels (the regime where the
//!    flat solver is DNF), a like-for-like flat-vs-hier wall comparison
//!    at 250/500 kernels under a reduced GA budget, and solution-quality
//!    ratios on synth60 and SCALE-LES under a *forced* decomposition
//!    (`Auto` would simply delegate to the flat path below 200 kernels).
//!
//! Results go to `results/search_scaling.json`; the machine-readable
//! headline for the regression gate goes to `BENCH_search.json` in the
//! working directory (the repo root when driven by `run_experiments.sh`).
//! `--check-against <file>` compares the fresh flat-solver, miss-path and
//! lane-batch rates against a committed baseline and exits non-zero on a
//! regression of more than 20%, or on a failed hierarchical
//! scaling/quality gate.
//! `--trace` additionally records one traced HGGA run per workload (via
//! `kfuse-obs`) and writes Perfetto-loadable chrome-trace JSON to
//! `results/search_scaling_trace_<kernels>.json`, so BENCH runs carry
//! timelines next to the throughput numbers.

use kfuse_bench::write_json;
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::prepare;
use kfuse_core::pipeline::Solver;
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_gpu::GpuSpec;
use kfuse_ir::KernelId;
use kfuse_obs::{InMemoryRecorder, ObsHandle};
use kfuse_search::{Evaluator, HggaConfig, HggaHierSolver, HggaSolver, PartitionMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

const ISLAND_COUNTS: [usize; 4] = [1, 2, 4, 8];
const KERNEL_COUNTS: [usize; 3] = [20, 40, 60];
const PLAN_POOL: usize = 48;

#[derive(Serialize)]
struct SolverPoint {
    islands: usize,
    wall_s: f64,
    objective: f64,
    generations: u32,
    evaluations: u64,
}

#[derive(Serialize)]
struct VariantPoint {
    variant: String,
    islands: usize,
    wall_s: f64,
    objective: f64,
    /// Individuals scored (population plus every generation's offspring).
    individuals: u64,
    /// Individuals scored per second — the GA's throughput currency.
    evals_per_sec: f64,
    /// Distinct multi-member objective evaluations (memo misses).
    evaluations: u64,
    /// Multi-member memo probes issued.
    probes: u64,
    /// Fraction of probes served from the memo.
    cache_hit_rate: f64,
    /// Plan/chromosome-level acyclicity checks performed.
    condensation_checks: u64,
}

/// Memo-miss path throughput: the allocation-free SoA synthesis +
/// view projection unit against the materializing legacy unit
/// (`check_group` → `project` → profitability), over the same group pool
/// with the memo bypassed, plus the cold-memo solver run's miss
/// accounting (every first-generation probe is a miss).
#[derive(Serialize, Clone)]
struct MissPoint {
    kernels: usize,
    /// Distinct multi-member groups in the measured pool.
    groups: usize,
    soa_evals_per_sec: f64,
    legacy_evals_per_sec: f64,
    speedup: f64,
    /// Fraction of probes that missed over a cold-memo solver run.
    cold_solver_miss_rate: f64,
    /// Mean nanoseconds per memo miss over that run (synthesis +
    /// projection + insert).
    cold_solver_miss_ns_per_eval: f64,
    /// Mean nanoseconds per miss spent inside synthesis proper.
    cold_solver_synth_ns_per_eval: f64,
}

/// Lane-batched miss-path throughput: the same group pool as
/// [`MissPoint`], scored whole-batch through
/// [`Evaluator::evaluate_uncached_batch`] (8-lane synthesis + batched
/// projection).
#[derive(Serialize, Clone)]
struct BatchPoint {
    kernels: usize,
    /// Distinct multi-member groups in the measured pool.
    groups: usize,
    batch_evals_per_sec: f64,
    /// The scalar SoA unit over the same pool (copied from the miss-path
    /// section) — the denominator of `speedup`.
    soa_evals_per_sec: f64,
    speedup: f64,
    /// Mean structure-passing candidates per lane sweep over the run.
    avg_batch_fill: f64,
}

/// One solver run in the hierarchical-scaling study.
#[derive(Serialize, Clone)]
struct HierScalePoint {
    kernels: usize,
    /// `"flat"` or `"hier"`.
    solver: String,
    /// GA budget label: `"study"` (pop 64 / 60 gens) or `"default"`.
    budget: String,
    wall_s: f64,
    objective: f64,
    groups: usize,
    regions_solved: u64,
    boundary_kernels: u64,
    stitch_merges: u64,
}

/// Flat-vs-forced-hier solution quality on one small workload.
#[derive(Serialize, Clone)]
struct HierQualityPoint {
    workload: String,
    kernels: usize,
    flat_objective: f64,
    hier_objective: f64,
    /// hier / flat projected time — ≤ 1.02 is the acceptance gate.
    ratio: f64,
}

/// The hierarchical partition-first section of the benchmark file.
#[derive(Serialize, Clone)]
struct HierSection {
    max_region: usize,
    scaling: Vec<HierScalePoint>,
    quality: Vec<HierQualityPoint>,
    /// hier wall(10k kernels) / hier wall(1k kernels). Linear scaling
    /// would put this at 10; the gate allows ≤ 15 (wall-clock ratios are
    /// noisy on shared machines even though both runs see similar load).
    scale_10k_over_1k: f64,
    /// Worst hier/flat objective ratio over the quality points.
    worst_quality_ratio: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    kernels: usize,
    miss_path: MissPoint,
    batch: BatchPoint,
    solver: Vec<SolverPoint>,
    variants: Vec<VariantPoint>,
}

#[derive(Serialize)]
struct Report {
    workloads: Vec<WorkloadReport>,
    hier: HierSection,
}

/// Machine-readable headline committed at the repo root and consumed by
/// the `--check-against` regression gate.
#[derive(Serialize)]
struct BenchFile {
    benchmark: String,
    population: usize,
    max_generations: u32,
    miss_path: Vec<MissPoint>,
    batch: Vec<BatchPoint>,
    variants: Vec<BenchVariant>,
    hier: HierSection,
    headline: Headline,
}

#[derive(Serialize)]
struct BenchVariant {
    kernels: usize,
    variant: String,
    islands: usize,
    evals_per_sec: f64,
    cache_hit_rate: f64,
    condensation_checks: u64,
}

#[derive(Serialize)]
struct Headline {
    kernels: usize,
    /// Threads the headline workload runs on (one per island of the
    /// 8-island flat solver).
    threads: usize,
    solver: SolverHeadline,
    miss: MissHeadline,
    batch: BatchHeadline,
}

#[derive(Serialize)]
struct SolverHeadline {
    islands: usize,
    reference_evals_per_sec: f64,
    flat_evals_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct MissHeadline {
    kernels: usize,
    soa_evals_per_sec: f64,
    legacy_evals_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BatchHeadline {
    kernels: usize,
    batch_evals_per_sec: f64,
    soa_evals_per_sec: f64,
    speedup: f64,
    avg_batch_fill: f64,
}

/// The shared scaling-study workload (see `kfuse_workloads::synth::scaling`
/// — also what `kfuse example synth60` dumps).
fn synth(kernels: usize) -> kfuse_ir::Program {
    kfuse_workloads::synth::scaling(kernels)
}

/// Record one traced HGGA run (8 islands, the study config) and write the
/// chrome-trace JSON next to the other results.
fn write_trace(kernels: usize, ctx: &PlanContext, model: &ProposedModel) {
    let rec = InMemoryRecorder::new();
    let s = HggaSolver {
        config: study_config(8),
    };
    let out = s.solve_observed(ctx, model, ObsHandle::new(&rec));
    let trace = kfuse_obs::chrome_trace(&rec);
    let path = kfuse_bench::results_dir().join(format!("search_scaling_trace_{kernels}.json"));
    match std::fs::write(&path, trace) {
        Ok(()) => println!(
            "  trace      : {} events over {:.3} s -> {}",
            rec.len(),
            out.stats.elapsed.as_secs_f64(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Deterministic pool of candidate plans built by random constructive
/// merging over the sharing graph — the same distribution the HGGA's
/// initializer draws from, so the memo sees realistic reuse.
fn plan_pool(ctx: &PlanContext, ev: &Evaluator<'_>, rng: &mut SmallRng) -> Vec<FusionPlan> {
    let n = ctx.n_kernels();
    (0..PLAN_POOL)
        .map(|_| {
            let mut group_of: Vec<usize> = (0..n).collect();
            let mut groups: Vec<Vec<KernelId>> = (0..n).map(|i| vec![KernelId(i as u32)]).collect();
            for _ in 0..n {
                let k = rng.gen_range(0..n);
                let neigh = ctx.share.neighbors(KernelId(k as u32));
                if neigh.is_empty() {
                    continue;
                }
                let m = neigh[rng.gen_range(0..neigh.len())] as usize;
                let (ga, gb) = (group_of[k], group_of[m]);
                if ga == gb || groups[ga].is_empty() || groups[gb].is_empty() {
                    continue;
                }
                let mut merged = groups[ga].clone();
                merged.extend_from_slice(&groups[gb]);
                if ev.feasible(&merged) {
                    for &kid in &groups[gb] {
                        group_of[kid.index()] = ga;
                    }
                    groups[ga] = merged;
                    groups[gb].clear();
                }
            }
            FusionPlan::new(groups.into_iter().filter(|g| !g.is_empty()).collect())
        })
        .collect()
}

/// Measure the miss path on one workload: distinct multi-member groups
/// from the plan pool, evaluated with the memo bypassed — the SoA unit
/// (`evaluate_uncached`) against the materializing legacy unit — plus a
/// cold-memo solver run for the real miss accounting.
fn miss_path_point(
    kernels: usize,
    ctx: &PlanContext,
    model: &ProposedModel,
    ev: &Evaluator<'_>,
    plans: &[FusionPlan],
) -> MissPoint {
    use kfuse_core::model::PerfModel;
    let mut groups: Vec<Vec<KernelId>> = plans
        .iter()
        .flat_map(|p| p.groups.iter().filter(|g| g.len() >= 2).cloned())
        .collect();
    groups.sort();
    groups.dedup();

    // The legacy per-miss unit, exactly as the evaluator computed it
    // before the SoA rework: materializing check_group, spec projection,
    // profitability gate.
    let legacy_unit = |g: &[KernelId]| -> f64 {
        match ctx.check_group(g, 0) {
            Ok(spec) => {
                let t = model.project(&ctx.info, &spec);
                if t >= ctx.info.original_sum(g) || t.is_nan() {
                    f64::INFINITY
                } else {
                    t
                }
            }
            Err(_) => f64::INFINITY,
        }
    };

    let mut scratch = kfuse_core::synth::SynthScratch::new();
    // Warm the scratch, then calibrate so each side runs ~0.5 s.
    let t = Instant::now();
    for g in &groups {
        std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
    }
    let pass = t.elapsed().as_secs_f64().max(1e-6);
    let iters = ((0.5 / pass).ceil() as usize).clamp(2, 100_000);

    let t = Instant::now();
    for _ in 0..iters {
        for g in &groups {
            std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
        }
    }
    let soa_rate = (iters * groups.len()) as f64 / t.elapsed().as_secs_f64();

    let t = Instant::now();
    for g in &groups {
        std::hint::black_box(legacy_unit(g));
    }
    let pass_l = t.elapsed().as_secs_f64().max(1e-6);
    let iters_l = ((0.5 / pass_l).ceil() as usize).clamp(2, 100_000);
    let t = Instant::now();
    for _ in 0..iters_l {
        for g in &groups {
            std::hint::black_box(legacy_unit(g));
        }
    }
    let legacy_rate = (iters_l * groups.len()) as f64 / t.elapsed().as_secs_f64();

    // Cold-memo solver run: a fresh evaluator inside the solver, so every
    // first sighting of a group pays the miss path.
    let out = HggaSolver {
        config: study_config(1),
    }
    .solve(ctx, model);
    let misses = out.stats.evaluations.max(1) as f64;

    MissPoint {
        kernels,
        groups: groups.len(),
        soa_evals_per_sec: soa_rate,
        legacy_evals_per_sec: legacy_rate,
        speedup: soa_rate / legacy_rate,
        cold_solver_miss_rate: out.stats.miss_rate,
        cold_solver_miss_ns_per_eval: out.stats.miss_ns as f64 / misses,
        cold_solver_synth_ns_per_eval: out.stats.synth_ns as f64 / misses,
    }
}

/// Lane-batched counterpart of [`miss_path_point`]: the identical group
/// pool, memo bypassed, scored whole-batch through
/// [`Evaluator::evaluate_uncached_batch`].
fn batch_point(kernels: usize, ev: &Evaluator<'_>, plans: &[FusionPlan]) -> BatchPoint {
    let mut groups: Vec<Vec<KernelId>> = plans
        .iter()
        .flat_map(|p| p.groups.iter().filter(|g| g.len() >= 2).cloned())
        .collect();
    groups.sort();
    groups.dedup();
    let mut batch = kfuse_core::batch::CandidateBatch::new();
    for g in &groups {
        batch.push(g);
    }

    let mut scratch = kfuse_core::batch::BatchScratch::new();
    let mut times: Vec<f64> = Vec::new();
    // Warm the scratch, then calibrate so the measurement runs ~0.5 s.
    let t = Instant::now();
    std::hint::black_box(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));
    let pass = t.elapsed().as_secs_f64().max(1e-6);
    let iters = ((0.5 / pass).ceil() as usize).clamp(2, 100_000);

    let mut stats = kfuse_core::batch::BatchStats::default();
    let t = Instant::now();
    for _ in 0..iters {
        stats.merge(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));
        std::hint::black_box(&times);
    }
    let rate = (iters * groups.len()) as f64 / t.elapsed().as_secs_f64();

    // The scalar baseline re-measures `evaluate_uncached` here, back to
    // back with the batched loop over the identical pool, so the speedup
    // ratio compares like state with like state (the miss stage's SoA
    // figure is measured under its own conditions).
    let mut s = kfuse_core::synth::SynthScratch::new();
    for g in &groups {
        std::hint::black_box(ev.evaluate_uncached(g, &mut s));
    }
    let t = Instant::now();
    for _ in 0..iters {
        for g in &groups {
            std::hint::black_box(ev.evaluate_uncached(g, &mut s));
        }
    }
    let soa = (iters * groups.len()) as f64 / t.elapsed().as_secs_f64();

    BatchPoint {
        kernels,
        groups: groups.len(),
        batch_evals_per_sec: rate,
        soa_evals_per_sec: soa,
        speedup: rate / soa,
        avg_batch_fill: stats.lanes as f64 / (stats.batches.max(1)) as f64,
    }
}

/// Shared hyper-parameters for the variant comparison: identical seeds and
/// budgets so the flat and reference loops walk the same trajectory.
fn study_config(islands: usize) -> HggaConfig {
    HggaConfig {
        population: 64,
        max_generations: 60,
        stall_generations: 20,
        islands,
        migration_interval: 5,
        seed: 0xC0FFEE,
        ..HggaConfig::default()
    }
}

/// Individuals scored over a whole run: the initial population plus one
/// population of offspring per generation (per island in island mode).
fn individuals_scored(cfg: &HggaConfig, stats: &kfuse_core::pipeline::SolveStats) -> u64 {
    if stats.islands.is_empty() {
        cfg.population as u64 * (1 + stats.generations as u64)
    } else {
        let pop_t = (cfg.population / cfg.islands).max(4) as u64;
        stats
            .islands
            .iter()
            .map(|i| pop_t * (1 + i.generations as u64))
            .sum()
    }
}

fn variant_point(
    variant: &str,
    cfg: &HggaConfig,
    out: &kfuse_core::pipeline::SolveOutcome,
    wall: f64,
) -> VariantPoint {
    let individuals = individuals_scored(cfg, &out.stats);
    VariantPoint {
        variant: variant.to_string(),
        islands: cfg.islands,
        wall_s: wall,
        objective: out.objective,
        individuals,
        evals_per_sec: individuals as f64 / wall,
        evaluations: out.stats.evaluations,
        probes: out.stats.probes,
        cache_hit_rate: out.stats.cache_hit_rate,
        condensation_checks: out.stats.condensation_checks,
    }
}

/// The clustered large-program family (`kfuse solve synthN` for N > 200
/// builds the same programs).
fn clustered(kernels: usize) -> kfuse_ir::Program {
    kfuse_workloads::synth::generate_clustered(&kfuse_workloads::synth::ClusteredConfig {
        name: format!("clustered_{kernels}"),
        kernels,
        seed: 0xC10C + kernels as u64,
        ..Default::default()
    })
}

fn hier_scale_point(
    kernels: usize,
    solver: &str,
    budget: &str,
    wall: f64,
    out: &kfuse_core::pipeline::SolveOutcome,
) -> HierScalePoint {
    use kfuse_obs::Counter;
    HierScalePoint {
        kernels,
        solver: solver.to_string(),
        budget: budget.to_string(),
        wall_s: wall,
        objective: out.objective,
        groups: out.plan.groups.len(),
        regions_solved: out.metrics.get(Counter::RegionsSolved),
        boundary_kernels: out.metrics.get(Counter::BoundaryKernels),
        stitch_merges: out.metrics.get(Counter::StitchMerges),
    }
}

/// Stage 6: hierarchical partition-first scaling and quality.
///
/// All runs are seeded, so every objective in this section is
/// deterministic; only the wall-clock columns vary run to run. The flat
/// solver is not measured at 1k+ kernels: a single flat run on the
/// 1000-kernel clustered program exceeds 15 minutes under the default
/// budget (superlinear in program size), which is exactly the regime the
/// hierarchical path exists for.
fn hier_stage(gpu: &GpuSpec, model: &ProposedModel) -> HierSection {
    const SEED: u64 = 17;
    let max_region = HggaHierSolver::DEFAULT_MAX_REGION;
    let mut scaling = Vec::new();

    // Like-for-like wall trend at the sizes the flat solver still
    // finishes: both solvers under the same reduced GA budget.
    for &kernels in &[250usize, 500] {
        let program = clustered(kernels);
        let (_, ctx) = prepare(&program, gpu, gpu.default_precision());
        let flat = HggaSolver {
            config: HggaConfig {
                seed: SEED,
                ..study_config(1)
            },
        };
        let t = Instant::now();
        let out = flat.solve(&ctx, model);
        let flat_wall = t.elapsed().as_secs_f64();
        scaling.push(hier_scale_point(kernels, "flat", "study", flat_wall, &out));
        let hier = HggaHierSolver {
            config: HggaConfig {
                seed: SEED,
                ..study_config(1)
            },
            ..HggaHierSolver::with_seed(SEED)
        };
        let t = Instant::now();
        let out = hier.solve(&ctx, model);
        let wall = t.elapsed().as_secs_f64();
        println!(
            "  hier trend {kernels}: hier {wall:.2} s vs flat {flat_wall:.2} s ({:.1}x)   {} regions",
            flat_wall / wall,
            out.metrics.get(kfuse_obs::Counter::RegionsSolved),
        );
        scaling.push(hier_scale_point(kernels, "hier", "study", wall, &out));
    }

    // Headline near-linearity points under the CLI-default budget.
    let (mut wall_1k, mut wall_10k) = (f64::NAN, f64::NAN);
    for &kernels in &[1000usize, 5000, 10_000] {
        let program = clustered(kernels);
        let (_, ctx) = prepare(&program, gpu, gpu.default_precision());
        let hier = HggaHierSolver::with_seed(SEED);
        let t = Instant::now();
        let out = hier.solve(&ctx, model);
        let wall = t.elapsed().as_secs_f64();
        println!(
            "  hier scale {kernels}: {wall:.2} s   objective {:.6e}   {} regions   {} groups",
            out.objective,
            out.metrics.get(kfuse_obs::Counter::RegionsSolved),
            out.plan.groups.len(),
        );
        if kernels == 1000 {
            wall_1k = wall;
        }
        if kernels == 10_000 {
            wall_10k = wall;
        }
        scaling.push(hier_scale_point(kernels, "hier", "default", wall, &out));
    }

    // Quality under a forced decomposition (Auto would delegate to the
    // flat path below 200 kernels, making the ratio exactly 1).
    let mut quality = Vec::new();
    for (name, program) in [
        ("synth60", synth(60)),
        ("scale-les", kfuse_workloads::scale_les::full()),
    ] {
        let (_, ctx) = prepare(&program, gpu, gpu.default_precision());
        let flat = HggaSolver {
            config: HggaConfig {
                seed: SEED,
                ..HggaConfig::default()
            },
        };
        let flat_out = flat.solve(&ctx, model);
        let hier = HggaHierSolver {
            partition: PartitionMode::MaxRegion(max_region),
            ..HggaHierSolver::with_seed(SEED)
        };
        let hier_out = hier.solve(&ctx, model);
        let ratio = hier_out.objective / flat_out.objective;
        println!(
            "  hier quality {name}: hier {:.6e} vs flat {:.6e} (ratio {ratio:.4})",
            hier_out.objective, flat_out.objective,
        );
        quality.push(HierQualityPoint {
            workload: name.to_string(),
            kernels: ctx.n_kernels(),
            flat_objective: flat_out.objective,
            hier_objective: hier_out.objective,
            ratio,
        });
    }

    let worst = quality.iter().map(|q| q.ratio).fold(f64::NAN, f64::max);
    HierSection {
        max_region,
        scaling,
        quality,
        scale_10k_over_1k: wall_10k / wall_1k,
        worst_quality_ratio: worst,
    }
}

fn main() {
    let check_against = kfuse_bench::check_against_arg();
    let trace = std::env::args().any(|a| a == "--trace");
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let mut workloads: Vec<WorkloadReport> = Vec::new();

    for &kernels in &KERNEL_COUNTS {
        let program = synth(kernels);
        let (_, ctx) = prepare(&program, &gpu, gpu.default_precision());
        let sharded = Evaluator::new(&ctx, &model);
        let mut rng = SmallRng::seed_from_u64(0xD15C0);
        let plans = plan_pool(&ctx, &sharded, &mut rng);

        println!("== {kernels} kernels ({} candidate plans) ==", plans.len());

        // The miss-path and lane-batched stages run first, before the
        // solver runs below: both measure raw (memo-independent)
        // evaluation, and the solvers' warmed memo shards otherwise bleed
        // cache pollution into their single-threaded timing loops.
        let miss_path = miss_path_point(kernels, &ctx, &model, &sharded, &plans);
        println!(
            "  miss path : SoA {:>12.0} evals/s   legacy {:>12.0} evals/s   ({:.2}x)   cold miss rate {:.3}   {:.0} ns/miss ({:.0} ns synth)",
            miss_path.soa_evals_per_sec,
            miss_path.legacy_evals_per_sec,
            miss_path.speedup,
            miss_path.cold_solver_miss_rate,
            miss_path.cold_solver_miss_ns_per_eval,
            miss_path.cold_solver_synth_ns_per_eval,
        );

        let batch = batch_point(kernels, &sharded, &plans);
        println!(
            "  batch     : batched {:>12.0} evals/s   scalar SoA {:>12.0} evals/s   ({:.2}x)   avg fill {:.2}",
            batch.batch_evals_per_sec, batch.soa_evals_per_sec, batch.speedup, batch.avg_batch_fill,
        );

        let mut solver = Vec::new();
        for &islands in &ISLAND_COUNTS {
            let s = HggaSolver {
                config: study_config(islands),
            };
            let t = Instant::now();
            let out = s.solve(&ctx, &model);
            let wall = t.elapsed().as_secs_f64();
            println!(
                "  hgga   islands={islands}: {:.3} s   objective {:.6e}   {} gens   {} evals",
                wall, out.objective, out.stats.generations, out.stats.evaluations
            );
            solver.push(SolverPoint {
                islands,
                wall_s: wall,
                objective: out.objective,
                generations: out.stats.generations,
                evaluations: out.stats.evaluations,
            });
        }

        // Solver variants: the reference Vec-of-Vecs loop against the flat
        // delta-evaluated solver at 1 and 8 islands, same seed and budget.
        let mut variants = Vec::new();
        {
            let cfg = study_config(1);
            let t = Instant::now();
            let out = kfuse_search::reference::solve(&cfg, &ctx, &model);
            variants.push(variant_point(
                "reference",
                &cfg,
                &out,
                t.elapsed().as_secs_f64(),
            ));
        }
        for islands in [1usize, 8] {
            let cfg = study_config(islands);
            let s = HggaSolver {
                config: cfg.clone(),
            };
            let t = Instant::now();
            let out = s.solve(&ctx, &model);
            variants.push(variant_point("flat", &cfg, &out, t.elapsed().as_secs_f64()));
        }
        for v in &variants {
            println!(
                "  variant {:>9} islands={}: {:>9.0} evals/s   {:.3} s   objective {:.6e}   {} cond checks   hit rate {:.3}",
                v.variant, v.islands, v.evals_per_sec, v.wall_s, v.objective,
                v.condensation_checks, v.cache_hit_rate
            );
        }

        if trace {
            write_trace(kernels, &ctx, &model);
        }

        workloads.push(WorkloadReport {
            kernels,
            miss_path,
            batch,
            solver,
            variants,
        });
    }

    println!("== hierarchical partition-first ==");
    let hier = hier_stage(&gpu, &model);
    println!(
        "  hier headline: wall(10k)/wall(1k) = {:.2}   worst quality ratio {:.4}",
        hier.scale_10k_over_1k, hier.worst_quality_ratio
    );

    let report = Report {
        workloads,
        hier: hier.clone(),
    };
    write_json("search_scaling", &report);

    // Machine-readable benchmark file + regression gate (ISSUE 3).
    let bench_variants: Vec<BenchVariant> = report
        .workloads
        .iter()
        .flat_map(|w| {
            w.variants.iter().map(|v| BenchVariant {
                kernels: w.kernels,
                variant: v.variant.clone(),
                islands: v.islands,
                evals_per_sec: v.evals_per_sec,
                cache_hit_rate: v.cache_hit_rate,
                condensation_checks: v.condensation_checks,
            })
        })
        .collect();
    let head_ref = bench_variants
        .iter()
        .find(|v| v.kernels == 60 && v.variant == "reference");
    let head_flat = bench_variants
        .iter()
        .find(|v| v.kernels == 60 && v.variant == "flat" && v.islands == 8);
    let bench_miss: Vec<MissPoint> = report
        .workloads
        .iter()
        .map(|w| w.miss_path.clone())
        .collect();
    let head_miss = bench_miss.iter().find(|m| m.kernels == 60);
    let bench_batch: Vec<BatchPoint> = report.workloads.iter().map(|w| w.batch.clone()).collect();
    let head_batch = bench_batch.iter().find(|b| b.kernels == 60);
    let (Some(head_ref), Some(head_flat), Some(head_miss), Some(head_batch)) =
        (head_ref, head_flat, head_miss, head_batch)
    else {
        eprintln!("missing 60-kernel headline measurements");
        std::process::exit(2);
    };
    let bench = BenchFile {
        benchmark: "search_scaling".into(),
        population: 64,
        max_generations: 60,
        headline: Headline {
            kernels: 60,
            threads: 8,
            solver: SolverHeadline {
                islands: 8,
                reference_evals_per_sec: head_ref.evals_per_sec,
                flat_evals_per_sec: head_flat.evals_per_sec,
                speedup: head_flat.evals_per_sec / head_ref.evals_per_sec,
            },
            miss: MissHeadline {
                kernels: 60,
                soa_evals_per_sec: head_miss.soa_evals_per_sec,
                legacy_evals_per_sec: head_miss.legacy_evals_per_sec,
                speedup: head_miss.speedup,
            },
            batch: BatchHeadline {
                kernels: 60,
                batch_evals_per_sec: head_batch.batch_evals_per_sec,
                soa_evals_per_sec: head_batch.soa_evals_per_sec,
                speedup: head_batch.speedup,
                avg_batch_fill: head_batch.avg_batch_fill,
            },
        },
        miss_path: bench_miss,
        batch: bench_batch,
        variants: bench_variants,
        hier,
    };
    println!(
        "\nsolver:   60 kernels — flat x8 {:.0} evals/s vs reference {:.0} evals/s ({:.2}x)",
        bench.headline.solver.flat_evals_per_sec,
        bench.headline.solver.reference_evals_per_sec,
        bench.headline.solver.speedup
    );
    println!(
        "miss:     60 kernels — SoA {:.0} evals/s vs legacy synthesize {:.0} evals/s ({:.2}x)",
        bench.headline.miss.soa_evals_per_sec,
        bench.headline.miss.legacy_evals_per_sec,
        bench.headline.miss.speedup
    );
    println!(
        "batch:    60 kernels — lane-batched {:.0} evals/s vs scalar SoA {:.0} evals/s ({:.2}x, avg fill {:.2})",
        bench.headline.batch.batch_evals_per_sec,
        bench.headline.batch.soa_evals_per_sec,
        bench.headline.batch.speedup,
        bench.headline.batch.avg_batch_fill
    );
    // Load the committed baseline BEFORE overwriting it with this run.
    let committed = check_against.map(|path| (kfuse_bench::load_baseline(&path), path));

    // This bin regenerates only the search-scaling sections; the
    // `warm_start` section (owned by the `warm_start` bin) is left as is.
    match serde_json::to_value(&bench) {
        Ok(serde_json::Value::Object(sections)) => kfuse_bench::merge_bench_sections(sections),
        Ok(_) => unreachable!("BenchFile serializes to an object"),
        Err(e) => eprintln!("warning: could not serialize BENCH_search.json: {e}"),
    }

    if let Some((committed, path)) = committed {
        let mut failed = false;
        for (what, baseline, fresh) in [
            (
                "flat solver",
                committed["headline"]["solver"]["flat_evals_per_sec"].as_f64(),
                bench.headline.solver.flat_evals_per_sec,
            ),
            (
                "miss-path SoA evaluation",
                committed["headline"]["miss"]["soa_evals_per_sec"].as_f64(),
                bench.headline.miss.soa_evals_per_sec,
            ),
            (
                "lane-batched miss-path evaluation",
                committed["headline"]["batch"]["batch_evals_per_sec"].as_f64(),
                bench.headline.batch.batch_evals_per_sec,
            ),
        ] {
            failed |= !kfuse_bench::floor_gate(&path, what, " evals/s", baseline, fresh);
        }
        // Fourth gate: hierarchical scaling. Absolute acceptance thresholds
        // first (wall(10k)/wall(1k) ≤ 15, forced-decomposition quality
        // within 2% of flat), then drift against the committed baseline's
        // scale factor — skipped gracefully when the baseline predates the
        // hier section.
        let scale = bench.hier.scale_10k_over_1k;
        let quality = bench.hier.worst_quality_ratio;
        if scale.is_nan() || scale > 15.0 {
            eprintln!(
                "REGRESSION: hier wall(10k)/wall(1k) = {scale:.2} exceeds the near-linear \
                 scaling gate of 15"
            );
            failed = true;
        }
        if quality.is_nan() || quality > 1.02 {
            eprintln!(
                "REGRESSION: hier worst quality ratio {quality:.4} exceeds the 2% gate \
                 against the flat solver"
            );
            failed = true;
        }
        match committed["hier"]["scale_10k_over_1k"]
            .as_f64()
            .filter(|s| *s > 0.0)
        {
            None => eprintln!("baseline {path} has no hier section; skipping hier scale drift"),
            Some(baseline) => {
                if scale > 1.5 * baseline {
                    eprintln!(
                        "REGRESSION: hier scale factor {scale:.2} is more than 50% above the \
                         committed baseline {baseline:.2} ({path})"
                    );
                    failed = true;
                } else {
                    println!(
                        "regression gate: hier scale factor {scale:.2} vs baseline \
                         {baseline:.2} — ok (quality ratio {quality:.4})"
                    );
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
