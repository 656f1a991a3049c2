//! Fig. 9: test-suite speedups after fusion (thread load 8), Kepler vs
//! Maxwell.
//!
//! The paper's observations: Maxwell exhibits higher speedups thanks to
//! its 64 KiB SMEM (larger new kernels, more complex fusions accepted);
//! a low array count enforces stricter ordering and yields lower speedups,
//! especially at low kernel counts — with the effect weaker on Maxwell.

use crate::{rule, run_pipeline, write_json, Ga};
use kfuse_gpu::GpuSpec;
use kfuse_workloads::{SuiteParams, TestSuite};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    gpu: String,
    benchmark: String,
    kernels: usize,
    arrays: usize,
    speedup: f64,
    fused: usize,
    new_kernels: usize,
    complex_fusions: usize,
}

pub fn run() {
    println!("Fig. 9: test-suite speedups (thread load 8)");
    println!(
        "{:<10} {:<26} {:>7} {:>6} {:>8} {:>6} {:>5} {:>8}",
        "GPU", "benchmark", "kernels", "arrays", "speedup", "fused", "new", "complex"
    );
    rule(84);

    let mut rows = Vec::new();
    for gpu in [GpuSpec::k20x(), GpuSpec::gtx750ti()] {
        for (kernels, arrays) in [
            (20usize, 20usize), // low array count → strict ordering
            (20, 40),
            (40, 80),
            (60, 120),
            (80, 160),
            (100, 200),
        ] {
            let params = SuiteParams {
                kernels,
                arrays,
                thread_load: 8,
                ..SuiteParams::default()
            };
            let program = TestSuite::generate(&params);
            // Average over seeds: single HGGA runs are noisy on small
            // instances and the Kepler/Maxwell comparison is the point.
            let runs: Vec<_> = (0..3)
                .map(|s| run_pipeline(&program, &gpu, &Ga::QUICK.solver(9 + s)))
                .collect();
            let r = runs
                .iter()
                .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
                .unwrap();
            let mean_speedup = runs.iter().map(|r| r.speedup()).sum::<f64>() / runs.len() as f64;
            let complex = r.specs.iter().filter(|s| s.complex).count();
            println!(
                "{:<10} {:<26} {:>7} {:>6} {:>7.3}x {:>6} {:>5} {:>8}",
                gpu.name,
                params.name(),
                kernels,
                arrays,
                mean_speedup,
                r.fused_kernel_count(),
                r.new_kernel_count(),
                complex
            );
            rows.push(Row {
                gpu: gpu.name.clone(),
                benchmark: params.name(),
                kernels,
                arrays,
                speedup: mean_speedup,
                fused: r.fused_kernel_count(),
                new_kernels: r.new_kernel_count(),
                complex_fusions: complex,
            });
        }
    }
    rule(84);
    for gpu in ["K20X", "GTX750Ti"] {
        let sel: Vec<&Row> = rows.iter().filter(|r| r.gpu == gpu).collect();
        let mean = sel.iter().map(|r| r.speedup).sum::<f64>() / sel.len().max(1) as f64;
        println!("{gpu}: mean speedup {mean:.3}x");
    }
    write_json("fig9", &rows);
}
