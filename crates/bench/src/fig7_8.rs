//! Fig. 7 (SCALE-LES) and Fig. 8 (HOMME): measured, projected, and
//! original-sum runtimes for every new kernel of the best-found plan on
//! K20X, in increasing order of execution time.
//!
//! The paper's headline structure: SCALE-LES fuses 117 of 142 kernels into
//! 38 new kernels, 4 of which end up slower than their original sum;
//! HOMME fuses 22 of 43 into 9, with 1 unprofitable.

use crate::{all_models, new_kernels, rule, run_pipeline, write_json, Ga};
use kfuse_core::model::{PerfModel, ProposedModel};
use kfuse_core::pipeline;
use kfuse_core::util::truncate_str;
use kfuse_gpu::GpuSpec;
use kfuse_ir::Program;
use kfuse_workloads::{homme, scale_les};
use serde::Serialize;

#[derive(Serialize)]
struct KernelRow {
    name: String,
    members: usize,
    measured_us: f64,
    projected_us: f64,
    original_sum_us: f64,
    profitable: bool,
}

#[derive(Serialize)]
struct AppResult {
    application: String,
    fused_kernels: usize,
    new_kernels: usize,
    unprofitable: usize,
    rows: Vec<KernelRow>,
}

fn run_app(name: &str, program: &Program, figure: &str) -> AppResult {
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let r = run_pipeline(program, &gpu, &Ga::PAPER.solver(17));

    let mut rows: Vec<KernelRow> = new_kernels(&r)
        .map(|nk| KernelRow {
            name: nk.kernel.name.clone(),
            members: nk.spec.members.len(),
            measured_us: nk.measured_s * 1e6,
            projected_us: model.project(&r.ctx.info, nk.spec) * 1e6,
            original_sum_us: nk.original_sum_s * 1e6,
            profitable: nk.measured_s < nk.original_sum_s,
        })
        .collect();
    rows.sort_by(|a, b| a.measured_us.total_cmp(&b.measured_us));

    let unprofitable = rows.iter().filter(|r| !r.profitable).count();
    println!();
    println!(
        "{figure}: {name} — {} kernels fused into {} new kernels ({} unprofitable)",
        r.fused_kernel_count(),
        r.new_kernel_count(),
        unprofitable
    );
    println!(
        "{:<46} {:>3} {:>10} {:>10} {:>10} {:>6}",
        "new kernel", "m", "meas(us)", "proj(us)", "orig(us)", "ok?"
    );
    rule(92);
    for r in &rows {
        let label: String = if r.name.len() > 44 {
            format!("{}…", truncate_str(&r.name, 43))
        } else {
            r.name.clone()
        };
        println!(
            "{:<46} {:>3} {:>10.1} {:>10.1} {:>10.1} {:>6}",
            label,
            r.members,
            r.measured_us,
            r.projected_us,
            r.original_sum_us,
            if r.profitable { "yes" } else { "NO" }
        );
    }

    AppResult {
        application: name.into(),
        fused_kernels: r.fused_kernel_count(),
        new_kernels: r.new_kernel_count(),
        unprofitable,
        rows,
    }
}

/// §VI-D1 ablation: how many measured-unprofitable new kernels (false
/// positives) does each projection model admit when used as the search
/// objective? The paper argues Roofline/simple objectives "would have
/// included search solutions overly loaded with false positives".
#[derive(Serialize)]
struct AblationRow {
    application: String,
    objective_model: &'static str,
    new_kernels: usize,
    unprofitable: usize,
    speedup: f64,
}

fn ablation(name: &str, program: &Program, rows: &mut Vec<AblationRow>) {
    let gpu = GpuSpec::k20x();
    let (precision, solver) = (gpu.default_precision(), Ga::PAPER.solver(17));
    for model in all_models() {
        let r = pipeline::run(program, &gpu, precision, model.as_ref(), &solver)
            .expect("pipeline must succeed");
        let unprofitable = new_kernels(&r)
            .filter(|nk| nk.measured_s >= nk.original_sum_s)
            .count();
        println!(
            "{:<11} {:<10} {:>5} new kernels, {:>3} unprofitable, speedup {:>6.3}x",
            name,
            model.name(),
            r.new_kernel_count(),
            unprofitable,
            r.speedup()
        );
        rows.push(AblationRow {
            application: name.into(),
            objective_model: model.name(),
            new_kernels: r.new_kernel_count(),
            unprofitable,
            speedup: r.speedup(),
        });
    }
}

pub fn run() {
    let apps = [
        ("SCALE-LES", scale_les::full(), "Fig. 7"),
        ("HOMME", homme::full(), "Fig. 8"),
    ];
    let results: Vec<AppResult> = apps
        .iter()
        .map(|(name, program, figure)| run_app(name, program, figure))
        .collect();
    println!();
    println!("paper: SCALE-LES 117→38 new kernels (4 unprofitable); HOMME 22→9 (1 unprofitable)");

    println!();
    println!("§VI-D1 ablation: false positives by objective model");
    rule(72);
    let mut ablation_rows = Vec::new();
    for (name, program, _) in &apps {
        ablation(name, program, &mut ablation_rows);
    }
    write_json("fig7_8", &results);
    write_json("fig7_8_ablation", &ablation_rows);
}
