//! Fig. 5a: percentage of HGGA runs finding the optimal solution on small
//! test-suite benchmarks, verified against the deterministic exhaustive
//! solver (the paper reports 95–100% across thread-load × sharing-set
//! variations).

use crate::{context, rule, write_json, Ga};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::Solver;
use kfuse_gpu::GpuSpec;
use kfuse_search::ExhaustiveSolver;
use kfuse_workloads::TestSuite;
use serde::Serialize;

const RUNS: u64 = 10;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    thread_load: usize,
    sharing_set: usize,
    optimum: f64,
    hits: u64,
    runs: u64,
    pct_best: f64,
}

pub fn run() {
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    println!("Fig. 5a: % of HGGA runs reaching the exhaustive optimum ({RUNS} runs each)");
    println!(
        "{:<30} {:>11} {:>12} {:>12} {:>8}",
        "benchmark", "thread load", "sharing set", "optimum (us)", "% best"
    );
    rule(80);

    let mut rows = Vec::new();
    for (params, program) in TestSuite::small_verification_grid(7) {
        let (_, ctx) = context(&program, &gpu);
        let exact = ExhaustiveSolver::default().solve(&ctx, &model);

        let hits = (0..RUNS)
            .filter(|seed| {
                let out = Ga::FIG5A.solver(1000 + seed).solve(&ctx, &model);
                out.objective <= exact.objective * (1.0 + 1e-9)
            })
            .count() as u64;
        let pct = 100.0 * hits as f64 / RUNS as f64;
        println!(
            "{:<30} {:>11} {:>12} {:>12.1} {:>7.0}%",
            params.name(),
            params.thread_load,
            params.sharing_set,
            exact.objective * 1e6,
            pct
        );
        rows.push(Row {
            benchmark: params.name(),
            thread_load: params.thread_load,
            sharing_set: params.sharing_set,
            optimum: exact.objective,
            hits,
            runs: RUNS,
            pct_best: pct,
        });
    }
    let mean = rows.iter().map(|r| r.pct_best).sum::<f64>() / rows.len() as f64;
    rule(80);
    println!("mean % best: {mean:.1}%   (paper: 95–100%)");
    write_json("fig5a", &rows);
}
