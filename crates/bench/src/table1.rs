//! Table I: features of different weather applications — kernel count,
//! array count, and the upper bound on reducible GMEM traffic.

use crate::{context, rule, write_json};
use kfuse_core::efficiency::reducible_traffic;
use kfuse_gpu::GpuSpec;
use kfuse_workloads::census;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    application: &'static str,
    kernels: usize,
    arrays: usize,
    sharing_sets: usize,
    reducible_pct: f64,
    paper_reducible_pct: f64,
}

/// One row per census application, on K20X.
fn rows() -> Vec<Row> {
    let gpu = GpuSpec::k20x();
    census::all([256, 32, 16])
        .into_iter()
        .map(|(row, program)| {
            let (relaxed, ctx) = context(&program, &gpu);
            let dep = kfuse_core::depgraph::DependencyGraph::build(&relaxed);
            Row {
                application: row.application,
                kernels: row.kernels,
                arrays: row.arrays,
                sharing_sets: dep.sharing_set_count(),
                reducible_pct: 100.0 * reducible_traffic(&ctx).fraction(),
                paper_reducible_pct: row.paper_reducible_pct,
            }
        })
        .collect()
}

pub fn run() {
    println!("Table I: Features of Different Weather Applications");
    println!(
        "{:<12} {:>8} {:>7} {:>13} {:>16} {:>10}",
        "Application", "Kernels", "Arrays", "Sharing sets", "Reducible (ours)", "Paper"
    );
    rule(72);
    let rows = rows();
    for r in &rows {
        println!(
            "{:<12} {:>8} {:>7} {:>13} {:>15.1}% {:>9.0}%",
            r.application,
            r.kernels,
            r.arrays,
            r.sharing_sets,
            r.reducible_pct,
            r.paper_reducible_pct
        );
    }
    write_json("table1", &rows);
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_yields_six_applications() {
        let rows = super::rows();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.kernels > 0 && r.reducible_pct > 0.0));
    }
}
