//! §VI-F: Fusion Efficiency (Eq. 12) — how much of the GMEM traffic
//! reduction each new kernel converts into runtime reduction. The paper
//! observes FE between 87% and 96% across the test suite, SCALE-LES and
//! HOMME, slightly higher on Maxwell.

use crate::{new_kernels, rule, run_pipeline, write_json, Ga};
use kfuse_core::efficiency::fusion_efficiency;
use kfuse_gpu::GpuSpec;
use kfuse_workloads::{homme, scale_les, SuiteParams, TestSuite};
use serde::Serialize;
use std::collections::BTreeSet;

#[derive(Serialize)]
struct Row {
    gpu: String,
    workload: String,
    new_kernel: String,
    fe: f64,
}

fn collect(gpu: &GpuSpec, workload: &str, program: kfuse_ir::Program, ga: Ga, rows: &mut Vec<Row>) {
    let r = run_pipeline(&program, gpu, &ga.solver(23));
    for nk in new_kernels(&r) {
        let orig_elems: u64 = nk
            .spec
            .members
            .iter()
            .map(|&m| r.ctx.info.meta(m).traffic_elems)
            .sum();
        rows.push(Row {
            gpu: gpu.name.clone(),
            workload: workload.into(),
            new_kernel: nk.kernel.name.clone(),
            fe: fusion_efficiency(
                nk.traffic_elems,
                nk.measured_s,
                orig_elems,
                nk.original_sum_s,
            ),
        });
    }
}

pub fn run() {
    let mut rows = Vec::new();
    for gpu in [GpuSpec::k20x(), GpuSpec::gtx750ti()] {
        collect(
            &gpu,
            "suite",
            TestSuite::generate(&SuiteParams::default()),
            Ga::QUICK,
            &mut rows,
        );
    }
    let k20x = GpuSpec::k20x();
    collect(&k20x, "SCALE-LES", scale_les::full(), Ga::PAPER, &mut rows);
    collect(&k20x, "HOMME", homme::full(), Ga::PAPER, &mut rows);

    println!("§VI-F: Fusion Efficiency of new kernels (paper: 87–96%)");
    println!(
        "{:<10} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "GPU", "workload", "n", "min FE", "mean FE", "max FE"
    );
    rule(58);
    let groups: BTreeSet<(&str, &str)> = rows.iter().map(|r| (&*r.gpu, &*r.workload)).collect();
    for (gpu, wl) in groups {
        let fes: Vec<f64> = rows
            .iter()
            .filter(|r| r.gpu == gpu && r.workload == wl)
            .map(|r| r.fe)
            .collect();
        let min = fes.iter().copied().fold(f64::INFINITY, f64::min);
        let max = fes.iter().copied().fold(0.0, f64::max);
        let mean = fes.iter().sum::<f64>() / fes.len() as f64;
        println!(
            "{:<10} {:<10} {:>8} {:>7.1}% {:>7.1}% {:>7.1}%",
            gpu,
            wl,
            fes.len(),
            100.0 * min,
            100.0 * mean,
            100.0 * max
        );
    }
    write_json("fusion_efficiency", &rows);
}
