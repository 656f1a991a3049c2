//! Fig. 6: measured vs projected runtime of new kernels across the test
//! suite (thread load 8), for the Roofline, simple, and proposed models,
//! on Kepler (K20X, double precision) and Maxwell (GTX 750 Ti, single
//! precision).
//!
//! The paper's observation: Roofline and the simple model are grossly
//! optimistic for resource-pressured fusions, while the proposed model
//! stays within an acceptable band of measurement — and GTX 750 Ti
//! projections get more accurate as the number of arrays (and hence SMEM
//! pressure) decreases.

use crate::{all_models, new_kernels, rule, run_pipeline, write_json, Ga};
use kfuse_gpu::GpuSpec;
use kfuse_workloads::{SuiteParams, TestSuite};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    gpu: String,
    benchmark: String,
    kernels: usize,
    new_kernels: usize,
    measured_total_us: f64,
    roofline_total_us: f64,
    simple_total_us: f64,
    proposed_total_us: f64,
    roofline_mean_err_pct: f64,
    simple_mean_err_pct: f64,
    proposed_mean_err_pct: f64,
}

pub fn run() {
    println!("Fig. 6: measured vs projected new-kernel runtimes (thread load 8)");
    println!(
        "{:<10} {:<24} {:>4} {:>9} {:>9} {:>9} {:>9} | {:>7} {:>7} {:>7}",
        "GPU", "benchmark", "new", "meas(us)", "roof", "simple", "prop", "roof%", "simp%", "prop%"
    );
    rule(110);

    let mut rows = Vec::new();
    for gpu in [GpuSpec::k20x(), GpuSpec::gtx750ti()] {
        for kernels in [20, 40, 60, 80, 100] {
            let params = SuiteParams {
                kernels,
                arrays: (kernels * 2).min(200),
                thread_load: 8,
                ..SuiteParams::default()
            };
            let program = TestSuite::generate(&params);
            let r = run_pipeline(&program, &gpu, &Ga::QUICK.solver(5));

            let models = all_models();
            let (mut n, mut measured_sum) = (0usize, 0.0);
            let (mut proj_sum, mut err_sum) = ([0.0f64; 3], [0.0f64; 3]);
            for nk in new_kernels(&r) {
                n += 1;
                measured_sum += nk.measured_s;
                for (mi, m) in models.iter().enumerate() {
                    let t = m.project(&r.ctx.info, nk.spec);
                    proj_sum[mi] += t;
                    err_sum[mi] += ((t - nk.measured_s) / nk.measured_s).abs();
                }
            }
            if n == 0 {
                continue;
            }
            let errs: Vec<f64> = err_sum.iter().map(|e| 100.0 * e / n as f64).collect();
            let row = Row {
                gpu: gpu.name.clone(),
                benchmark: params.name(),
                kernels,
                new_kernels: n,
                measured_total_us: measured_sum * 1e6,
                roofline_total_us: proj_sum[0] * 1e6,
                simple_total_us: proj_sum[1] * 1e6,
                proposed_total_us: proj_sum[2] * 1e6,
                roofline_mean_err_pct: errs[0],
                simple_mean_err_pct: errs[1],
                proposed_mean_err_pct: errs[2],
            };
            println!(
                "{:<10} {:<24} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>6.1}% {:>6.1}% {:>6.1}%",
                row.gpu,
                row.benchmark,
                n,
                row.measured_total_us,
                row.roofline_total_us,
                row.simple_total_us,
                row.proposed_total_us,
                errs[0],
                errs[1],
                errs[2]
            );
            rows.push(row);
        }
    }
    rule(110);
    for gpu in ["K20X", "GTX750Ti"] {
        let sel: Vec<&Row> = rows.iter().filter(|r| r.gpu == gpu).collect();
        if sel.is_empty() {
            continue;
        }
        let mean = |f: fn(&Row) -> f64| sel.iter().map(|r| f(r)).sum::<f64>() / sel.len() as f64;
        println!(
            "{gpu}: mean abs error — roofline {:.1}%, simple {:.1}%, proposed {:.1}%",
            mean(|r| r.roofline_mean_err_pct),
            mean(|r| r.simple_mean_err_pct),
            mean(|r| r.proposed_mean_err_pct)
        );
    }
    write_json("fig6", &rows);
}
