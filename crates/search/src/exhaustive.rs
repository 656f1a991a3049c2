//! Exact solver: exhaustive enumeration of set partitions.
//!
//! The deterministic method the paper uses to verify HGGA solution quality
//! on small test-suite benchmarks (§VI-C1, Fig. 5a). Enumerates restricted
//! growth strings (canonical set partitions), pruning assignments that mix
//! sharing-graph components (kinship can never be repaired by adding more
//! members), and evaluates complete partitions through the shared memoized
//! [`Evaluator`].
//!
//! Complexity is the Bell number B(n); the solver refuses programs beyond
//! [`ExhaustiveSolver::max_kernels`].

use crate::eval::Evaluator;
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, ObsHandle, SpanId};
use std::time::Instant;

/// Exhaustive partition enumeration.
#[derive(Debug, Clone)]
pub struct ExhaustiveSolver {
    /// Refuse instances larger than this (Bell growth).
    pub max_kernels: usize,
}

impl Default for ExhaustiveSolver {
    fn default() -> Self {
        ExhaustiveSolver { max_kernels: 13 }
    }
}

impl Solver for ExhaustiveSolver {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn solve_observed(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
    ) -> SolveOutcome {
        let n = ctx.n_kernels();
        assert!(
            n <= self.max_kernels,
            "exhaustive search over {n} kernels exceeds the {} limit (Bell-number blowup)",
            self.max_kernels
        );
        let ev = Evaluator::observed(ctx, model, obs);
        let start = Instant::now();
        let mut solve_span = obs.span(SpanId::Solve);
        solve_span.set_arg(0, n as u64);

        // Restricted growth string enumeration.
        let mut assign = vec![0usize; n];
        let mut best_plan = FusionPlan::identity(n);
        let mut best_cost = ev.plan(&best_plan);
        ev.count(Counter::PartitionsScored, 1);

        {
            let mut enum_span = obs.span(SpanId::Enumeration);
            enum_span.set_arg(0, n as u64);
            enumerate(ctx, &ev, &mut assign, 0, 0, &mut best_plan, &mut best_cost);
        }

        let metrics = ev.snapshot();
        let stats = SolveStats {
            elapsed: start.elapsed(),
            time_to_best: start.elapsed(),
            ..SolveStats::from_metrics(&metrics)
        };
        SolveOutcome {
            plan: best_plan,
            objective: best_cost,
            stats,
            metrics,
        }
    }
}

fn enumerate(
    ctx: &PlanContext,
    ev: &Evaluator<'_>,
    assign: &mut Vec<usize>,
    i: usize,
    max_used: usize,
    best_plan: &mut FusionPlan,
    best_cost: &mut f64,
) {
    let n = assign.len();
    if i == n {
        let mut groups: Vec<Vec<KernelId>> = vec![Vec::new(); max_used];
        for (k, &g) in assign.iter().enumerate() {
            groups[g].push(KernelId(k as u32));
        }
        let plan = FusionPlan::new(groups);
        let cost = ev.plan(&plan);
        ev.count(Counter::PartitionsScored, 1);
        if cost < *best_cost {
            *best_cost = cost;
            *best_plan = plan;
        }
        return;
    }
    let ki = KernelId(i as u32);
    for g in 0..=max_used {
        // Sound pruning: mixing sharing components can never become
        // feasible (constraint 1.5 is monotone in group growth).
        if g < max_used {
            let first_in_g = assign[..i]
                .iter()
                .position(|&a| a == g)
                .expect("group g is non-empty");
            if ctx.share.component(KernelId(first_in_g as u32)) != ctx.share.component(ki) {
                continue;
            }
        }
        assign[i] = g;
        let new_max = max_used.max(g + 1);
        enumerate(ctx, ev, assign, i + 1, new_max, best_plan, best_cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::model::ProposedModel;
    use kfuse_core::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    fn small_program(n_consumers: usize) -> kfuse_ir::Program {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        for i in 0..n_consumers {
            let out = pb.array(format!("O{i}"));
            pb.kernel(format!("k{i}"))
                .write(out, Expr::at(a) + Expr::lit(i as f64))
                .build();
        }
        pb.build()
    }

    #[test]
    fn exhaustive_finds_the_all_fused_optimum() {
        // All kernels share A with no ordering constraints: the optimum is
        // fusing everything (if capacity allows, which it does for 4).
        let (_, ctx) = prepare(&small_program(4), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let out = ExhaustiveSolver::default().solve(&ctx, &model);
        assert!(out.objective.is_finite());
        assert_eq!(out.plan.groups.len(), 1, "plan {:?}", out.plan);
        assert_eq!(out.plan.groups[0].len(), 4);
    }

    #[test]
    fn exhaustive_is_a_lower_bound_for_other_solvers() {
        let (_, ctx) = prepare(&small_program(5), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let exact = ExhaustiveSolver::default().solve(&ctx, &model);
        let greedy = crate::GreedySolver.solve(&ctx, &model);
        assert!(exact.objective <= greedy.objective + 1e-15);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn refuses_oversized_instances() {
        let (_, ctx) = prepare(&small_program(14), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let _ = ExhaustiveSolver::default().solve(&ctx, &model);
    }
}
