//! Greedy pairwise-merge baseline.
//!
//! §III-A observes that classical polynomial-time approximations (e.g.
//! first-fit decreasing) do not transfer to kernel fusion because there is
//! no natural notion of "size" to sort by. This solver is the honest
//! attempt anyway: repeatedly apply the single pairwise group merge with
//! the largest projected improvement until no merge improves the
//! objective. It is fast and serves as the non-architecture-aware /
//! non-global baseline the HGGA is compared against.

use crate::eval::{Evaluator, GroupEval};
use kfuse_core::batch::CandidateBatch;
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, ObsHandle, SpanId};
use std::time::Instant;

/// The greedy best-merge-first solver.
#[derive(Debug, Clone, Default)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &str {
        "greedy"
    }

    fn solve_observed(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
    ) -> SolveOutcome {
        let ev = Evaluator::observed(ctx, model, obs);
        let start = Instant::now();
        let mut solve_span = obs.span(SpanId::Solve);
        let n = ctx.n_kernels();
        solve_span.set_arg(0, n as u64);
        let mut groups: Vec<Vec<KernelId>> = (0..n).map(|i| vec![KernelId(i as u32)]).collect();

        // Steady-state buffers: the probe pair-merge, the candidate plan's
        // group storage (inner Vec capacity reclaimed after each check via
        // `plan.groups`), and the row's merge candidates.
        let mut merged: Vec<KernelId> = Vec::new();
        let mut cand_pool: Vec<Vec<KernelId>> = Vec::new();
        let mut cands = CandidateBatch::new();
        let mut evals: Vec<GroupEval> = Vec::new();
        let mut row: Vec<u32> = Vec::new();

        loop {
            let mut sweep_span = obs.span(SpanId::GreedySweep);
            sweep_span.set_arg(0, groups.len() as u64);
            ev.count(Counter::GreedySweeps, 1);
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..groups.len() {
                // Lane-batch row `i`: every pairwise merge candidate that
                // passes the kinship prefilter, scored in one flush. The
                // solver has no RNG and evaluations are pure, so the
                // best-merge choice is unchanged.
                cands.clear();
                row.clear();
                for j in i + 1..groups.len() {
                    // Kinship prefilter: skip cross-component pairs.
                    if ctx.share.component(groups[i][0]) != ctx.share.component(groups[j][0]) {
                        continue;
                    }
                    cands.extend_members(&groups[i]);
                    cands.extend_members(&groups[j]);
                    cands.seal();
                    row.push(j as u32);
                }
                ev.group_batch(&cands, &mut evals);
                for (c, &j) in row.iter().enumerate() {
                    let j = j as usize;
                    let cur = ev.group(&groups[i]).time_s + ev.group(&groups[j]).time_s;
                    let t = evals[c].time_s;
                    if !t.is_finite() {
                        continue;
                    }
                    merged.clear();
                    merged.extend_from_slice(&groups[i]);
                    merged.extend_from_slice(&groups[j]);
                    let gain = cur - t;
                    if gain > 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                        // Verify the merged plan remains realizable (feasible
                        // and acyclic: `Evaluator::plan` is ∞ otherwise). The
                        // candidate's group vectors are drawn from a pool so
                        // repeated checks allocate nothing once warm.
                        while cand_pool.len() < groups.len() - 1 {
                            cand_pool.push(Vec::new());
                        }
                        cand_pool.truncate(groups.len() - 1);
                        let mut w = 0;
                        for (gi, g) in groups.iter().enumerate() {
                            if gi == i || gi == j {
                                continue;
                            }
                            cand_pool[w].clear();
                            cand_pool[w].extend_from_slice(g);
                            w += 1;
                        }
                        cand_pool[w].clear();
                        cand_pool[w].extend_from_slice(&merged);
                        let plan = FusionPlan::new(std::mem::take(&mut cand_pool));
                        if ev.plan(&plan).is_finite() {
                            best = Some((i, j, gain));
                        }
                        cand_pool = plan.groups;
                    }
                }
            }
            match best {
                Some((i, j, _)) => {
                    let gj = groups.remove(j);
                    groups[i].extend(gj);
                    ev.count(Counter::GreedyMerges, 1);
                    sweep_span.set_arg(1, 1);
                }
                None => break,
            }
        }

        let plan = FusionPlan::new(groups);
        let objective = ev.plan(&plan);
        let metrics = ev.snapshot();
        let stats = SolveStats {
            elapsed: start.elapsed(),
            time_to_best: start.elapsed(),
            ..SolveStats::from_metrics(&metrics)
        };
        SolveOutcome {
            plan,
            objective,
            stats,
            metrics,
        }
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

    #[test]
    fn greedy_fuses_profitable_shared_readers() {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c] = pb.arrays(["B", "C"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        let (_, ctx) = prepare(&pb.build(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let out = GreedySolver.solve(&ctx, &model);
        assert_eq!(out.plan.groups.len(), 1);
        assert!(out.objective.is_finite());
        assert!(ctx.validate(&out.plan).is_ok());
    }

    #[test]
    fn greedy_leaves_unrelated_kernels_alone() {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1").write(d, Expr::at(c)).build();
        let (_, ctx) = prepare(&pb.build(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let out = GreedySolver.solve(&ctx, &model);
        assert_eq!(out.plan.groups.len(), 2);
    }
}
