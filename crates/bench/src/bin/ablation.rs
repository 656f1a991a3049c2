//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * expandable-array relaxation on/off (§II-B1c);
//! * the HGGA's hybrid local-search step on/off (§III-C);
//! * host-sync epochs honored vs a hypothetical fully-resident port;
//! * the §II-C read-only-cache capacity relaxation on/off;
//! * solver choice (HGGA vs greedy best-merge).
//!
//! Each variant reports the simulated end-to-end speedup on SCALE-LES and
//! HOMME (K20X).

use kfuse_bench::write_json;
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{self, Solver};
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::Program;
use kfuse_search::{GreedySolver, HggaConfig, HggaSolver};
use kfuse_workloads::{homme, scale_les};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    application: &'static str,
    variant: &'static str,
    speedup: f64,
    fused: usize,
    new_kernels: usize,
}

fn hgga(seed: u64, local_search: bool) -> HggaSolver {
    HggaSolver {
        config: HggaConfig {
            population: 100,
            max_generations: 800,
            stall_generations: 50,
            local_search_rate: if local_search { 0.3 } else { 0.0 },
            seed,
        },
    }
}

fn run(
    app: &'static str,
    program: &Program,
    gpu: &GpuSpec,
    variant: &'static str,
    solver: &dyn Solver,
    rows: &mut Vec<Row>,
) {
    run_opts(
        app,
        program,
        gpu,
        variant,
        solver,
        pipeline::PipelineOptions::default(),
        rows,
    );
}

fn run_opts(
    app: &'static str,
    program: &Program,
    gpu: &GpuSpec,
    variant: &'static str,
    solver: &dyn Solver,
    opts: pipeline::PipelineOptions,
    rows: &mut Vec<Row>,
) {
    let model = ProposedModel::default();
    match pipeline::run_with(program, gpu, FpPrecision::Double, &model, solver, opts) {
        Ok(r) => {
            println!(
                "{:<11} {:<22} {:>8.3}x  fused {:>3} → {:>3} new",
                app,
                variant,
                r.speedup(),
                r.fused_kernel_count(),
                r.new_kernel_count()
            );
            rows.push(Row {
                application: app,
                variant,
                speedup: r.speedup(),
                fused: r.fused_kernel_count(),
                new_kernels: r.new_kernel_count(),
            });
        }
        Err(e) => println!("{app:<11} {variant:<22} failed: {e}"),
    }
}

fn main() {
    println!("Ablation over design choices (K20X, proposed model)");
    kfuse_bench::rule(64);
    let mut rows = Vec::new();
    let gpu = GpuSpec::k20x();
    let mut gpu_ro = GpuSpec::k20x();
    gpu_ro.use_readonly_cache = true;

    for (app, program) in [("SCALE-LES", scale_les::full()), ("HOMME", homme::full())] {
        // Baseline.
        run(app, &program, &gpu, "baseline", &hgga(17, true), &mut rows);

        // No hybrid local search.
        run(
            app,
            &program,
            &gpu,
            "no local search",
            &hgga(17, false),
            &mut rows,
        );

        // Greedy solver.
        run(
            app,
            &program,
            &gpu,
            "greedy solver",
            &GreedySolver,
            &mut rows,
        );

        // Read-only cache relaxation.
        run(
            app,
            &program,
            &gpu_ro,
            "+readonly cache",
            &hgga(17, true),
            &mut rows,
        );

        // Hypothetical fully device-resident port: drop host syncs.
        let mut resident = program.clone();
        resident.host_syncs.clear();
        run(
            app,
            &resident,
            &gpu,
            "no host syncs",
            &hgga(17, true),
            &mut rows,
        );

        // No expandable-array relaxation: original precedences kept.
        run_opts(
            app,
            &program,
            &gpu,
            "no relaxation",
            &hgga(17, true),
            pipeline::PipelineOptions { relax: false },
            &mut rows,
        );
        let relax = kfuse_core::relax::relax_expandable(&program);
        println!(
            "{:<11} {:<22} ({} redundant copies added by relaxation)",
            app, "relaxation info", relax.copies_added
        );
        kfuse_bench::rule(64);
    }
    write_json("ablation", &rows);
}
