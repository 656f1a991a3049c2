//! Architecture exploration (§VI-E2): because the projection model is
//! codeless, "running the model" against a hypothetical device is enough
//! to study how future SMEM capacities would change fusion quality.
//!
//! ```sh
//! cargo run --release --example whatif_smem
//! ```

use kernel_fusion::prelude::*;
use kfuse_workloads::homme;

fn main() {
    let model = ProposedModel::default();
    let program = homme::full();

    println!("HOMME fusion quality vs per-SMX shared-memory capacity");
    println!(
        "{:>10} {:>10} {:>7} {:>6} {:>10}",
        "SMEM", "speedup", "fused", "new", "complex"
    );
    println!("{}", "-".repeat(48));

    for kib in [16u32, 32, 48, 64, 128] {
        let mut gpu = GpuSpec::hypothetical_smem(kib);
        gpu.name = format!("{kib}KiB");
        let result = pipeline::run(
            &program,
            &gpu,
            FpPrecision::Double,
            &model,
            &HggaSolver::with_seed(7),
        )
        .unwrap();
        let complex = result.specs.iter().filter(|s| s.complex).count();
        println!(
            "{:>7}KiB {:>9.3}x {:>7} {:>6} {:>10}",
            kib,
            result.speedup(),
            result.fused_kernel_count(),
            result.new_kernel_count(),
            complex
        );
    }
    println!();
    println!("(the paper's study ran SCALE-LES at 128/256 KiB, projecting 1.56x/1.65x;");
    println!(" see `repro smem_whatif` for that experiment)");
}
