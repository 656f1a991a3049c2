//! Table VII: SCALE-LES and HOMME speedups after kernel fusion on K40 and
//! K20X. Paper: SCALE-LES 1.35x / 1.32x; HOMME 1.20x / 1.18x.

use crate::{rule, run_pipeline, write_json, Ga};
use kfuse_gpu::GpuSpec;
use kfuse_workloads::{homme, scale_les};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    application: &'static str,
    gpu: String,
    speedup: f64,
    paper_speedup: f64,
    fused: usize,
    new_kernels: usize,
    calls_before: usize,
    calls_after: usize,
}

pub fn run() {
    println!("Table VII: SCALE-LES and HOMME Speedups After Kernel Fusion");
    println!(
        "{:<11} {:>9} {:>9} {:>8} {:>6} {:>5} {:>12}",
        "App", "GPU", "speedup", "paper", "fused", "new", "calls"
    );
    rule(68);

    let mut rows = Vec::new();
    for (name, program, paper_k40, paper_k20x) in [
        ("SCALE-LES", scale_les::full(), 1.35, 1.32),
        ("HOMME", homme::full(), 1.20, 1.18),
    ] {
        for (gpu, paper) in [(GpuSpec::k40(), paper_k40), (GpuSpec::k20x(), paper_k20x)] {
            let r = run_pipeline(&program, &gpu, &Ga::PAPER.solver(17));
            println!(
                "{:<11} {:>9} {:>8.3}x {:>7.2}x {:>6} {:>5} {:>6}→{:<5}",
                name,
                gpu.name,
                r.speedup(),
                paper,
                r.fused_kernel_count(),
                r.new_kernel_count(),
                r.relaxed.kernels.len(),
                r.fused.kernels.len()
            );
            rows.push(Row {
                application: name,
                gpu: gpu.name.clone(),
                speedup: r.speedup(),
                paper_speedup: paper,
                fused: r.fused_kernel_count(),
                new_kernels: r.new_kernel_count(),
                calls_before: r.relaxed.kernels.len(),
                calls_after: r.fused.kernels.len(),
            });
        }
    }
    rule(68);
    println!("paper: SCALE-LES fused 117 of 142 kernels into 38; HOMME 22 of 43 into 9");
    write_json("table7", &rows);
}
