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

/// Where to write result JSON files.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("KFUSE_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).ok();
    p
}

/// Serialize `value` to `results/<name>.json`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
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

/// The committed machine-readable headline file, in the working directory
/// (the repo root when driven by `run_experiments.sh`). `search_scaling`
/// and `warm_start` each own some of its top-level sections.
const BENCH_FILE: &str = "BENCH_search.json";

/// The file named by `--check-against <file>` on the command line, if the
/// flag was given. Exits with status 2 when the flag has no argument.
pub fn check_against_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--check-against" {
            path = args.next();
            if path.is_none() {
                eprintln!("--check-against requires a file argument");
                std::process::exit(2);
            }
        }
    }
    path
}

/// Parse the committed baseline at `path`, exiting with status 2 if it
/// cannot be read. Call this *before* [`merge_bench_sections`]: the
/// baseline is usually the very file that call replaces.
pub fn load_baseline(path: &str) -> serde_json::Value {
    match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Read-modify-write `BENCH_search.json`: replace (or add) the given
/// top-level sections and leave every other section as it was, so each
/// study bin regenerates only what it owns. A missing or unparseable file
/// starts from an empty object.
pub fn merge_bench_sections(sections: impl IntoIterator<Item = (String, serde_json::Value)>) {
    let mut bench = std::fs::read_to_string(BENCH_FILE)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    for (key, value) in sections {
        bench.insert(key, value);
    }
    match serde_json::to_string_pretty(&serde_json::Value::Object(bench)) {
        Ok(s) => match std::fs::write(BENCH_FILE, s) {
            Ok(()) => eprintln!("wrote {BENCH_FILE}"),
            Err(e) => eprintln!("warning: could not write {BENCH_FILE}: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize {BENCH_FILE}: {e}"),
    }
}

/// The drift gate both study bins share: `fresh` (higher is better) may
/// not fall more than 20% below the committed `baseline`. Prints the
/// verdict and returns whether the gate holds; a baseline without the
/// number (it predates the section) is skipped, not failed.
pub fn floor_gate(path: &str, what: &str, unit: &str, baseline: Option<f64>, fresh: f64) -> bool {
    let Some(baseline) = baseline.filter(|b| *b > 0.0) else {
        eprintln!("baseline {path} has no usable {what}; skipping");
        return true;
    };
    if fresh < 0.8 * baseline {
        eprintln!(
            "REGRESSION: {what} {fresh:.1}{unit} is more than 20% below the committed \
             baseline {baseline:.1}{unit} ({path})"
        );
        false
    } else {
        println!("regression gate: {what} {fresh:.1}{unit} vs baseline {baseline:.1}{unit} — ok");
        true
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
