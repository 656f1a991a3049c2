//! §VI-E2 what-if study: SCALE-LES improvement with hypothetical SMEM
//! capacities. The paper projects 1.56x at 128 KiB and 1.65x at 256 KiB
//! per SMX (vs 1.32x on the real 48 KiB K20X), showing how the projection
//! model doubles as an architecture-exploration tool.

use crate::{rule, run_pipeline, write_json, Ga};
use kfuse_core::model::{PerfModel, ProposedModel};
use kfuse_gpu::GpuSpec;
use kfuse_workloads::scale_les;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    smem_kib: u32,
    speedup_measured: f64,
    speedup_projected: f64,
    reducible_pct: f64,
    fused: usize,
    new_kernels: usize,
    paper_projected: Option<f64>,
}

pub fn run() {
    println!("§VI-E2: SCALE-LES speedup vs hypothetical SMEM capacity");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>6} {:>5} {:>8}",
        "SMEM", "measured", "projected", "reducible", "fused", "new", "paper"
    );
    rule(66);

    let model = ProposedModel::default();
    let mut rows = Vec::new();
    for (kib, paper) in [(48u32, None), (128, Some(1.56)), (256, Some(1.65))] {
        let gpu = if kib == 48 {
            GpuSpec::k20x()
        } else {
            GpuSpec::hypothetical_smem(kib)
        };
        let program = scale_les::full();
        let r = run_pipeline(&program, &gpu, &Ga::PAPER.solver(17));
        // Projected speedup: original measured sum over the search
        // objective (total projected runtime of the winning plan).
        let original: f64 = r.ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
        let projected_total: f64 = r.specs.iter().map(|s| model.project(&r.ctx.info, s)).sum();
        let proj_speedup = original / projected_total;
        // The capacity-aware reducible-traffic bound grows with SMEM: the
        // structural mechanism behind the paper's projected 1.56x/1.65x.
        let reducible = 100.0 * kfuse_core::efficiency::reducible_traffic(&r.ctx).fraction();
        println!(
            "{:>6}KiB {:>9.3}x {:>9.3}x {:>9.1}% {:>6} {:>5} {:>8}",
            kib,
            r.speedup(),
            proj_speedup,
            reducible,
            r.fused_kernel_count(),
            r.new_kernel_count(),
            paper.map_or("-".into(), |p| format!("{p:.2}x")),
        );
        rows.push(Row {
            smem_kib: kib,
            speedup_measured: r.speedup(),
            speedup_projected: proj_speedup,
            reducible_pct: reducible,
            fused: r.fused_kernel_count(),
            new_kernels: r.new_kernel_count(),
            paper_projected: paper,
        });
    }
    write_json("smem_whatif", &rows);
}
