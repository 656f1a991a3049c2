//! Fig. 5b: time to best solution for the largest test-suite benchmarks.
//!
//! The paper's search runs in minutes on an 8-core Xeon for benchmarks of
//! up to 100 kernels / 200 arrays; the point of the figure is that the
//! search scales to the large end of Table V.

use crate::{context, rule, write_json, Ga};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::Solver;
use kfuse_gpu::GpuSpec;
use kfuse_workloads::{SuiteParams, TestSuite};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    kernels: usize,
    arrays: usize,
    generations: u32,
    evaluations: u64,
    time_to_best_ms: f64,
    total_ms: f64,
    objective: f64,
    identity_objective: f64,
}

pub fn run() {
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    println!("Fig. 5b: time to best solution, largest suite benchmarks");
    println!(
        "{:<28} {:>7} {:>6} {:>6} {:>9} {:>12} {:>10}",
        "benchmark", "kernels", "arrays", "gens", "evals", "t-best (ms)", "total (ms)"
    );
    rule(86);

    let mut rows = Vec::new();
    for kernels in [60, 70, 80, 90, 100] {
        let params = SuiteParams {
            kernels,
            arrays: (kernels * 2).min(200),
            ..SuiteParams::default()
        };
        let program = TestSuite::generate(&params);
        let (_, ctx) = context(&program, &gpu);
        let out = Ga::QUICK.solver(3).solve(&ctx, &model);
        let id_obj: f64 = ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
        let row = Row {
            benchmark: params.name(),
            kernels,
            arrays: params.arrays,
            generations: out.stats.generations,
            evaluations: out.stats.evaluations,
            time_to_best_ms: out.stats.time_to_best.as_secs_f64() * 1e3,
            total_ms: out.stats.elapsed.as_secs_f64() * 1e3,
            objective: out.objective,
            identity_objective: id_obj,
        };
        println!(
            "{:<28} {:>7} {:>6} {:>6} {:>9} {:>12.1} {:>10.1}",
            row.benchmark,
            row.kernels,
            row.arrays,
            row.generations,
            row.evaluations,
            row.time_to_best_ms,
            row.total_ms,
        );
        rows.push(row);
    }
    write_json("fig5b", &rows);
}
