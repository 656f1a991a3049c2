//! Algorithm 1: end-to-end performance improvement by kernel fusion.
//!
//! 1. Gather metadata of original kernels (Table III);
//! 2. create the dependency and order-of-execution graphs;
//! 3. (steps 3–8) search for the best fusion plan (generic over
//!    [`Solver`] — the HGGA of the paper lives in `kfuse-search`, with
//!    exhaustive and greedy baselines);
//! 4. (step 9) use the best solution to guide fusion (here: automatically
//!    applied by [`crate::fuse::apply_plan`]).

use crate::depgraph::DependencyGraph;
use crate::exec_order::ExecOrderGraph;
use crate::fuse::{apply_plan, FuseError};
use crate::kinship::ShareGraph;
use crate::metadata::ProgramInfo;
use crate::model::PerfModel;
use crate::plan::{FusionPlan, PlanContext};
use crate::relax::relax_in_place;
use crate::spec::GroupSpec;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::Program;
use kfuse_obs::{ratio, Counter, MetricsSnapshot, ObsHandle};
use kfuse_sim::{simulate_program, ProgramTiming};
use std::time::Duration;

/// Statistics reported by a solver run (Table VI columns).
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Generations executed (0 for non-evolutionary solvers).
    pub generations: u32,
    /// Objective-function evaluations.
    pub evaluations: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Wall-clock time until the best solution was first reached.
    pub time_to_best: Duration,
    /// Generation at which the best solution was first reached.
    pub best_generation: u32,
    /// Memo probes issued by the evaluator (multi-member group lookups).
    pub probes: u64,
    /// Fraction of probes answered from the memo without re-evaluation.
    pub cache_hit_rate: f64,
    /// Plan-level condensation acyclicity checks performed.
    pub condensation_checks: u64,
    /// Fraction of memo probes that missed and paid the synthesis +
    /// projection cost (`evaluations / probes`).
    pub miss_rate: f64,
    /// Total wall-clock nanoseconds on the memo-miss path (synthesis,
    /// projection, insert), summed over every evaluator of the solve.
    pub miss_ns: u64,
    /// Nanoseconds of `miss_ns` spent inside group synthesis proper.
    pub synth_ns: u64,
    /// Average candidate lanes per lane sweep over every memo-miss flush,
    /// a lone miss's one-lane sweep included
    /// (`BatchLanesFilled / BatchesScored`): up to 8, 0.0 when the run
    /// scored nothing.
    pub avg_batch_fill: f64,
}

impl SolveStats {
    /// Derive the registry-backed portion of the stats from a metrics
    /// snapshot. Fields the registry cannot know — wall-clock times and
    /// `best_generation` — stay at their defaults for the caller to fill
    /// in.
    ///
    /// This is the single mapping between the [`kfuse_obs`] counter
    /// taxonomy and the legacy Table VI columns, so every solver reports
    /// `probes`/`cache_hit_rate`/`miss_ns`/… identically (and rates are
    /// `0.0`, never NaN, when no probe was issued).
    pub fn from_metrics(metrics: &MetricsSnapshot) -> SolveStats {
        let probes = metrics.get(Counter::MemoProbes);
        let misses = metrics.get(Counter::MemoMisses);
        SolveStats {
            generations: metrics.get(Counter::Generations) as u32,
            evaluations: misses,
            probes,
            cache_hit_rate: ratio(probes.saturating_sub(misses), probes),
            condensation_checks: metrics.get(Counter::CondensationChecks),
            miss_rate: ratio(misses, probes),
            miss_ns: metrics.get(Counter::MissNs),
            synth_ns: metrics.get(Counter::SynthNs),
            avg_batch_fill: ratio(
                metrics.get(Counter::BatchLanesFilled),
                metrics.get(Counter::BatchesScored),
            ),
            ..SolveStats::default()
        }
    }
}

/// Outcome of a solver run.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best plan found.
    pub plan: FusionPlan,
    /// Its objective value (total projected runtime, Eq. 1).
    pub objective: f64,
    /// Search statistics (Table VI view, derived from `metrics` by
    /// registry-backed solvers).
    pub stats: SolveStats,
    /// Raw metrics snapshot the run accumulated (empty for solvers that
    /// predate the registry, e.g. external [`Solver`] impls).
    pub metrics: MetricsSnapshot,
}

impl SolveOutcome {
    /// An outcome carrying no metrics snapshot (for hand-rolled or stub
    /// solvers).
    pub fn new(plan: FusionPlan, objective: f64, stats: SolveStats) -> SolveOutcome {
        SolveOutcome {
            plan,
            objective,
            stats,
            metrics: MetricsSnapshot::default(),
        }
    }
}

/// A search strategy over the space of feasible fusion plans.
pub trait Solver {
    /// Solver name for reports.
    fn name(&self) -> &str;

    /// Find a (near-)optimal plan for `ctx` under `model`, emitting
    /// spans/gauges into `obs` during the run.
    fn solve_observed(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
    ) -> SolveOutcome;

    /// [`Solver::solve_observed`] with tracing disabled.
    fn solve(&self, ctx: &PlanContext, model: &dyn PerfModel) -> SolveOutcome {
        self.solve_observed(ctx, model, ObsHandle::disabled())
    }
}

/// Everything produced by one pipeline run.
pub struct PipelineResult {
    /// The relaxed program the plan applies to.
    pub relaxed: Program,
    /// The fused program.
    pub fused: Program,
    /// The winning plan.
    pub plan: FusionPlan,
    /// Synthesized specs, one per group.
    pub specs: Vec<GroupSpec>,
    /// Planning context (metadata + graphs), reusable for reporting.
    pub ctx: PlanContext,
    /// Solver statistics.
    pub stats: SolveStats,
    /// Raw solver metrics snapshot (see [`SolveOutcome::metrics`]).
    pub metrics: MetricsSnapshot,
    /// Simulated timing of the relaxed (original) program.
    pub original_timing: ProgramTiming,
    /// Simulated timing of the fused program.
    pub fused_timing: ProgramTiming,
}

impl PipelineResult {
    /// End-to-end speedup (original / fused), the paper's Table VII metric.
    pub fn speedup(&self) -> f64 {
        self.original_timing.total_s / self.fused_timing.total_s
    }

    /// Number of original kernels fused into multi-member groups.
    pub fn fused_kernel_count(&self) -> usize {
        self.plan.fused_kernel_count()
    }

    /// Number of new (multi-member) kernels.
    pub fn new_kernel_count(&self) -> usize {
        self.plan.new_kernel_count()
    }
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The winning plan failed validation (solver bug).
    InvalidPlan(crate::plan::PlanError),
    /// The winning plan could not be applied.
    Fuse(FuseError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidPlan(e) => write!(f, "solver returned invalid plan: {e}"),
            PipelineError::Fuse(e) => write!(f, "fusion failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Pipeline options (ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Apply the expandable read-write relaxation (§II-B1c). On by
    /// default; turning it off keeps the original precedence constraints.
    pub relax: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { relax: true }
    }
}

/// Build the [`PlanContext`] for `program` on `gpu`: relaxation, metadata
/// extraction, graph construction. Returns the relaxed program alongside
/// (the borrowing form of [`prepare_owned`]: it copies the input, and the
/// relaxed program out of the context).
pub fn prepare(program: &Program, gpu: &GpuSpec, precision: FpPrecision) -> (Program, PlanContext) {
    let ctx = prepare_owned(program.clone(), gpu, precision);
    let relaxed = ctx.program.clone().expect("prepare attaches the program");
    (relaxed, ctx)
}

/// [`prepare`] for a caller that is done with `program`: it is relaxed in
/// place and moved into the context ([`PlanContext::program`]), so the
/// request path holds one copy of it from the parser to the plan. Every
/// step is one walk over the kernels: relaxation, metadata, each graph.
pub fn prepare_owned(program: Program, gpu: &GpuSpec, precision: FpPrecision) -> PlanContext {
    prepare_owned_with(program, gpu, precision, PipelineOptions::default())
}

/// [`prepare_owned`] with explicit [`PipelineOptions`].
pub fn prepare_owned_with(
    mut program: Program,
    gpu: &GpuSpec,
    precision: FpPrecision,
    opts: PipelineOptions,
) -> PlanContext {
    if opts.relax {
        relax_in_place(&mut program);
    }
    let info = ProgramInfo::extract(&program, gpu, precision);
    let exec = ExecOrderGraph::build(&program);
    let dep = DependencyGraph::build(&program);
    let share = ShareGraph::build(&dep, program.kernels.len());
    PlanContext::new(info, exec, share).with_program(program)
}

/// Run Algorithm 1 end to end.
pub fn run(
    program: &Program,
    gpu: &GpuSpec,
    precision: FpPrecision,
    model: &dyn PerfModel,
    solver: &dyn Solver,
) -> Result<PipelineResult, PipelineError> {
    run_with(
        program,
        gpu,
        precision,
        model,
        solver,
        PipelineOptions::default(),
    )
}

/// [`run`] with explicit [`PipelineOptions`].
pub fn run_with(
    program: &Program,
    gpu: &GpuSpec,
    precision: FpPrecision,
    model: &dyn PerfModel,
    solver: &dyn Solver,
    opts: PipelineOptions,
) -> Result<PipelineResult, PipelineError> {
    let ctx = prepare_owned_with(program.clone(), gpu, precision, opts);
    let relaxed = ctx.program.clone().expect("prepare attaches the program");
    let outcome = solver.solve(&ctx, model);
    let specs = ctx
        .validate(&outcome.plan)
        .map_err(PipelineError::InvalidPlan)?;
    let fused = apply_plan(&relaxed, &ctx.info, &ctx.exec, &outcome.plan, &specs)
        .map_err(PipelineError::Fuse)?;

    let original_timing = simulate_program(gpu, &relaxed, precision);
    let fused_timing = simulate_program(gpu, &fused, precision);

    Ok(PipelineResult {
        relaxed,
        fused,
        plan: outcome.plan,
        specs,
        ctx,
        stats: outcome.stats,
        metrics: outcome.metrics,
        original_timing,
        fused_timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProposedModel;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::{Expr, KernelId};

    /// A stub solver returning the plan its function builds for the
    /// kernel count — pipeline plumbing tests.
    struct FixedSolver(fn(usize) -> FusionPlan);
    impl Solver for FixedSolver {
        fn name(&self) -> &str {
            "fixed"
        }
        fn solve_observed(
            &self,
            ctx: &PlanContext,
            model: &dyn PerfModel,
            _: ObsHandle<'_>,
        ) -> SolveOutcome {
            let plan = (self.0)(ctx.n_kernels());
            let objective = ctx.objective(&plan, model);
            SolveOutcome::new(plan, objective, SolveStats::default())
        }
    }

    /// Fuse the first two kernels (valid for the test program below).
    fn pair(n: usize) -> FusionPlan {
        let mut groups = vec![vec![KernelId(0), KernelId(1)]];
        groups.extend((2..n).map(|i| vec![KernelId(i as u32)]));
        FusionPlan::new(groups)
    }

    fn run_program(plan: fn(usize) -> FusionPlan) -> PipelineResult {
        let (gpu, model) = (GpuSpec::k20x(), ProposedModel::default());
        let solver = FixedSolver(plan);
        run(&program(), &gpu, FpPrecision::Double, &model, &solver).unwrap()
    }

    fn program() -> kfuse_ir::Program {
        let mut pb = ProgramBuilder::new("p", [256, 128, 16]);
        let a = pb.array("A");
        let [b, c, d] = pb.arrays(["B", "C", "D"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k2")
            .write(d, Expr::at(c) - Expr::lit(1.0))
            .build();
        pb.build()
    }

    #[test]
    fn identity_pipeline_runs_and_reports_speedup_one() {
        let r = run_program(FusionPlan::identity);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
        assert_eq!(r.new_kernel_count(), 0);
    }

    #[test]
    fn fusing_pipeline_speeds_up() {
        let r = run_program(pair);
        assert!(r.speedup() > 1.0, "speedup {}", r.speedup());
        assert_eq!(r.fused_kernel_count(), 2);
        assert_eq!(r.new_kernel_count(), 1);
        assert_eq!(r.fused.kernels.len(), 2);
    }
}
