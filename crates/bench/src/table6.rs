//! Table VI: performance and parameters of the search algorithm on the
//! two real-world applications.
//!
//! Paper: SCALE-LES — 2000 generations, population 100, 5.4e6 evaluations,
//! 9.51 min; HOMME — 1000 generations, population 100, 2.7e6 evaluations,
//! 6.11 min (on an 8-core Xeon X5670). Our evaluator memoizes per-group
//! projections, so the distinct-evaluation count and wall time are far
//! smaller at equal coverage.

use crate::{context, rule, write_json, Ga};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::Solver;
use kfuse_gpu::GpuSpec;
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

pub fn run() {
    println!("Table VI: Performance & Parameters of Search Algorithm");
    println!(
        "{:<11} {:>6} {:>11} {:>13} {:>12} | {:>6} {:>10} {:>10}",
        "App", "gens", "population", "evaluations", "runtime", "paper", "evals", "runtime"
    );
    rule(92);

    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let apps = [
        (
            "SCALE-LES",
            scale_les::full(),
            Ga::TABLE6_SCALE_LES,
            5.4e6,
            9.51,
        ),
        ("HOMME", homme::full(), Ga::TABLE6_HOMME, 2.7e6, 6.11),
    ];

    let mut rows = Vec::new();
    for (name, program, ga, paper_evals, paper_min) in apps {
        let (_, ctx) = context(&program, &gpu);
        let solver = ga.solver(11);
        let out = solver.solve(&ctx, &model);
        let row = Row {
            application: name,
            generations: out.stats.generations,
            population: solver.config.population,
            evaluations: out.stats.evaluations,
            runtime_s: out.stats.elapsed.as_secs_f64(),
            objective: out.objective,
            // The GA runs to the paper's generation count.
            paper_generations: solver.config.max_generations,
            paper_evaluations: paper_evals,
            paper_runtime_min: paper_min,
        };
        println!(
            "{:<11} {:>6} {:>11} {:>13} {:>10.2}s | {:>6} {:>10.1e} {:>8.2}m",
            name,
            row.generations,
            row.population,
            row.evaluations,
            row.runtime_s,
            row.paper_generations,
            paper_evals,
            paper_min
        );
        rows.push(row);
    }
    println!();
    println!("note: distinct objective evaluations after per-group memoization;");
    println!("the paper's 3 ms/evaluation GROPHECY comparison: `miss_ns / memo_misses`");
    println!("of any `kfuse stats` run, `search.miss_ns_per_eval` in benchmark/.");
    write_json("table6", &rows);
}
