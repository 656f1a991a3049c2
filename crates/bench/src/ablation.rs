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

use crate::{rule, write_json, Ga};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{self, PipelineOptions, Solver};
use kfuse_gpu::GpuSpec;
use kfuse_ir::Program;
use kfuse_search::GreedySolver;
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

pub fn run() {
    println!("Ablation over design choices (K20X, proposed model)");
    rule(64);
    let mut rows = Vec::new();
    let gpu = GpuSpec::k20x();
    let mut gpu_ro = GpuSpec::k20x();
    gpu_ro.use_readonly_cache = true;
    let model = ProposedModel::default();
    let hgga = Ga::ABLATION.solver(17);
    let no_ls = Ga::ABLATION_NO_LOCAL_SEARCH.solver(17);
    let relax_on = PipelineOptions::default();
    // Original precedences kept.
    let relax_off = PipelineOptions { relax: false };

    for (app, program) in [("SCALE-LES", scale_les::full()), ("HOMME", homme::full())] {
        // Hypothetical fully device-resident port: drop host syncs.
        let mut resident = program.clone();
        resident.host_syncs.clear();
        let variants: [(&str, &Program, &GpuSpec, &dyn Solver, PipelineOptions); 6] = [
            ("baseline", &program, &gpu, &hgga, relax_on),
            ("no local search", &program, &gpu, &no_ls, relax_on),
            ("greedy solver", &program, &gpu, &GreedySolver, relax_on),
            ("+readonly cache", &program, &gpu_ro, &hgga, relax_on),
            ("no host syncs", &resident, &gpu, &hgga, relax_on),
            ("no relaxation", &program, &gpu, &hgga, relax_off),
        ];
        for (variant, program, gpu, solver, opts) in variants {
            let precision = gpu.default_precision();
            match pipeline::run_with(program, gpu, precision, &model, solver, opts) {
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
        let relax = kfuse_core::relax::relax_expandable(&program);
        println!(
            "{:<11} {:<22} ({} redundant copies added by relaxation)",
            app, "relaxation info", relax.copies_added
        );
        rule(64);
    }
    write_json("ablation", &rows);
}
