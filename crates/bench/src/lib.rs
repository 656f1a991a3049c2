//! Experiment harness: shared plumbing for the per-table / per-figure
//! binaries in `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the full index) and prints a comparison against the
//! published values. Results are also written as JSON under `results/`
//! (override with `KFUSE_RESULTS`).

use kfuse_core::model::{PerfModel, ProposedModel};
use kfuse_core::pipeline::{self, PipelineResult, Solver};
use kfuse_core::plan::PlanContext;
use kfuse_gpu::GpuSpec;
use kfuse_ir::Program;
use kfuse_search::{HggaConfig, HggaSolver};
use std::path::PathBuf;

/// Default HGGA configuration for the experiments: the paper's population
/// of 100 with a stall-based stop criterion.
pub fn hgga(seed: u64) -> HggaSolver {
    HggaSolver {
        config: HggaConfig {
            population: 100,
            max_generations: 2000,
            stall_generations: 50,
            seed,
            ..HggaConfig::default()
        },
    }
}

/// A faster HGGA for sweeps over many benchmarks.
pub fn hgga_quick(seed: u64) -> HggaSolver {
    HggaSolver {
        config: HggaConfig {
            population: 60,
            max_generations: 400,
            stall_generations: 30,
            seed,
            ..HggaConfig::default()
        },
    }
}

/// Run Algorithm 1 end to end with the proposed model.
pub fn run_pipeline(program: &Program, gpu: &GpuSpec, solver: &dyn Solver) -> PipelineResult {
    let precision = gpu.default_precision();
    let model = ProposedModel::default();
    pipeline::run(program, gpu, precision, &model, solver).expect("pipeline must succeed")
}

/// Build the planning context only (no search).
pub fn context(program: &Program, gpu: &GpuSpec) -> (Program, PlanContext) {
    pipeline::prepare(program, gpu, gpu.default_precision())
}

/// Precision-aware program simulation shorthand.
pub fn simulate(gpu: &GpuSpec, p: &Program) -> kfuse_sim::ProgramTiming {
    kfuse_sim::simulate_program(gpu, p, gpu.default_precision())
}

/// The three projection models, boxed for iteration.
pub fn all_models() -> Vec<Box<dyn PerfModel>> {
    vec![
        Box::new(kfuse_core::model::RooflineModel),
        Box::new(kfuse_core::model::SimpleModel),
        Box::new(ProposedModel::default()),
    ]
}

/// Serialize `value` to `results/<name>.json` (override the directory
/// with `KFUSE_RESULTS`).
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from(std::env::var("KFUSE_RESULTS").unwrap_or_else(|_| "results".into()));
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Format seconds as microseconds with 1 decimal.
pub fn us(t: f64) -> String {
    format!("{:.1}", t * 1e6)
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        assert_eq!(us(0.0005541), "554.1");
        let models = all_models();
        assert_eq!(models.len(), 3);
        assert_eq!(models[2].name(), "proposed");
    }
}
