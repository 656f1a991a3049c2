//! Table VI: performance and parameters of the search algorithm on the
//! two real-world applications.
//!
//! Paper: SCALE-LES — 2000 generations, population 100, 5.4e6 evaluations,
//! 9.51 min; HOMME — 1000 generations, population 100, 2.7e6 evaluations,
//! 6.11 min (on an 8-core Xeon X5670). Our evaluator memoizes per-group
//! projections, so the distinct-evaluation count and wall time are far
//! smaller at equal coverage.

use kfuse_bench::{context, write_json};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::Solver;
use kfuse_gpu::GpuSpec;
use kfuse_search::{HggaConfig, HggaSolver};
use kfuse_workloads::{homme, scale_les};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    application: &'static str,
    generations: u32,
    population: usize,
    evaluations: u64,
    runtime_s: f64,
    objective: f64,
    paper_generations: u32,
    paper_evaluations: f64,
    paper_runtime_min: f64,
}

fn main() {
    println!("Table VI: Performance & Parameters of Search Algorithm");
    println!(
        "{:<11} {:>6} {:>11} {:>13} {:>12} | {:>6} {:>10} {:>10}",
        "App", "gens", "population", "evaluations", "runtime", "paper", "evals", "runtime"
    );
    kfuse_bench::rule(92);

    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let apps: [(&str, kfuse_ir::Program, u32, u32, f64, f64); 2] = [
        ("SCALE-LES", scale_les::full(), 2000, 2000, 5.4e6, 9.51),
        ("HOMME", homme::full(), 1000, 1000, 2.7e6, 6.11),
    ];

    let mut rows = Vec::new();
    for (name, program, max_gens, paper_gens, paper_evals, paper_min) in apps {
        let (_, ctx) = context(&program, &gpu);
        let solver = HggaSolver {
            config: HggaConfig {
                population: 100,
                max_generations: max_gens,
                stall_generations: 80,
                seed: 11,
                ..HggaConfig::default()
            },
        };
        let out = solver.solve(&ctx, &model);
        println!(
            "{:<11} {:>6} {:>11} {:>13} {:>10.2}s | {:>6} {:>10.1e} {:>8.2}m",
            name,
            out.stats.generations,
            100,
            out.stats.evaluations,
            out.stats.elapsed.as_secs_f64(),
            paper_gens,
            paper_evals,
            paper_min
        );
        rows.push(Row {
            application: name,
            generations: out.stats.generations,
            population: 100,
            evaluations: out.stats.evaluations,
            runtime_s: out.stats.elapsed.as_secs_f64(),
            objective: out.objective,
            paper_generations: paper_gens,
            paper_evaluations: paper_evals,
            paper_runtime_min: paper_min,
        });
    }
    println!();
    println!("note: distinct objective evaluations after per-group memoization;");
    println!("the paper's 3 ms/evaluation GROPHECY comparison: `miss_ns / memo_misses`");
    println!("of any `kfuse stats` run, `search.miss_ns_per_eval` in benchmark/.");
    write_json("table6", &rows);
}
