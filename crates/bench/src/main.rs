//! `repro`: the one driver regenerating every table and figure of the
//! paper (see DESIGN.md §4 for the full index).
//!
//! `repro <name>` runs one experiment, `repro all` runs every one in
//! paper order, `repro --list` names them with their paper section. Each
//! experiment prints a comparison against the published values and writes
//! its rows as JSON under `results/` (override with `KFUSE_RESULTS`).

mod ablation;
mod fig3_motivating;
mod fig5a;
mod fig5b;
mod fig6;
mod fig7_8;
mod fig9;
mod fusion_efficiency;
mod smem_whatif;
mod table1;
mod table5;
mod table6;
mod table7;
mod weak_scaling;

use kfuse_core::model::{PerfModel, ProposedModel};
use kfuse_core::pipeline::{self, PipelineResult, Solver};
use kfuse_core::plan::PlanContext;
use kfuse_core::spec::GroupSpec;
use kfuse_gpu::GpuSpec;
use kfuse_ir::{Kernel, Program};
use kfuse_search::{HggaConfig, HggaSolver};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every experiment: `(name, paper section, run)`, in paper order. The
/// name is the subcommand and the stem of its `results/*.json`.
const EXPERIMENTS: &[(&str, &str, fn())] = &[
    ("table1", "Table I", table1::run),
    ("fig3_motivating", "Fig. 3, §IV-B", fig3_motivating::run),
    ("table5", "Table V", table5::run),
    ("fig5a", "Fig. 5a", fig5a::run),
    ("fig5b", "Fig. 5b", fig5b::run),
    ("table6", "Table VI", table6::run),
    ("fig6", "Fig. 6", fig6::run),
    ("fig7_8", "Figs. 7-8, §VI-D1", fig7_8::run),
    ("fig9", "Fig. 9", fig9::run),
    ("table7", "Table VII", table7::run),
    ("smem_whatif", "§VI-E2", smem_whatif::run),
    ("fusion_efficiency", "§VI-F", fusion_efficiency::run),
    ("ablation", "design choices", ablation::run),
    ("weak_scaling", "§VI-A", weak_scaling::run),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--list"] => {
            for (name, section, _) in EXPERIMENTS {
                println!("{name:<18} {section}");
            }
        }
        ["all"] => {
            for (name, _, run) in EXPERIMENTS {
                let bar = "=".repeat(64);
                println!("\n{bar}\n== {name}\n{bar}");
                run();
            }
        }
        [name] => match EXPERIMENTS.iter().find(|(n, _, _)| *n == name) {
            Some((_, _, run)) => run(),
            None => {
                eprintln!("unknown experiment `{name}` (see `repro --list`)");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: repro <experiment> | all | --list");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// One GA setup: population, generation cap, stall limit (generations
/// without improvement) and local-search rate. The seed stays with the
/// experiment.
#[derive(Clone, Copy)]
struct Ga(usize, u32, u32, f64);

/// Every GA setup the experiments use, one row each.
impl Ga {
    /// The paper's population of 100 with a stall-based stop.
    const PAPER: Ga = Ga(100, 2000, 50, 0.3);
    /// A faster GA for sweeps over many benchmarks.
    const QUICK: Ga = Ga(60, 400, 30, 0.3);
    /// Fig. 5a's runs against the exhaustive optimum.
    const FIG5A: Ga = Ga(100, 600, 80, 0.3);
    /// Table VI, at the paper's generation cap per application.
    const TABLE6_SCALE_LES: Ga = Ga(100, 2000, 80, 0.3);
    const TABLE6_HOMME: Ga = Ga(100, 1000, 80, 0.3);
    /// The ablation's baseline, and the same without local search.
    const ABLATION: Ga = Ga(100, 800, 50, 0.3);
    const ABLATION_NO_LOCAL_SEARCH: Ga = Ga(100, 800, 50, 0.0);

    fn solver(self, seed: u64) -> HggaSolver {
        let Ga(population, max_generations, stall_generations, local_search_rate) = self;
        HggaSolver {
            config: HggaConfig {
                population,
                max_generations,
                stall_generations,
                local_search_rate,
                seed,
            },
        }
    }
}

/// Run Algorithm 1 end to end under the proposed model, at the GPU's
/// default precision.
fn run_pipeline(program: &Program, gpu: &GpuSpec, solver: &dyn Solver) -> PipelineResult {
    let model = ProposedModel::default();
    pipeline::run(program, gpu, gpu.default_precision(), &model, solver)
        .expect("pipeline must succeed")
}

/// One multi-member group of a fused plan, with the new kernel it became.
struct NewKernel<'a> {
    spec: &'a GroupSpec,
    kernel: &'a Kernel,
    /// Simulated runtime of the new kernel (s).
    measured_s: f64,
    /// Measured runtime of its members before fusion (s).
    original_sum_s: f64,
    /// GMEM traffic of the new kernel (elements).
    traffic_elems: u64,
}

/// The new kernels of `r`, in plan group order.
fn new_kernels(r: &PipelineResult) -> impl Iterator<Item = NewKernel<'_>> {
    r.specs
        .iter()
        .zip(&r.plan.groups)
        .filter(|(_, group)| group.len() >= 2)
        .map(|(spec, _)| {
            let fk = r
                .fused
                .kernels
                .iter()
                .position(|k| k.sources() == spec.members)
                .expect("fused kernel for group");
            let timing = &r.fused_timing.kernels[fk];
            NewKernel {
                spec,
                kernel: &r.fused.kernels[fk],
                measured_s: timing.time_s,
                original_sum_s: r.ctx.info.original_sum(&spec.members),
                traffic_elems: timing.traffic.elems(),
            }
        })
}

/// Build the planning context only (no search).
fn context(program: &Program, gpu: &GpuSpec) -> (Program, PlanContext) {
    pipeline::prepare(program, gpu, gpu.default_precision())
}

/// The three projection models, boxed for iteration.
fn all_models() -> Vec<Box<dyn PerfModel>> {
    vec![
        Box::new(kfuse_core::model::RooflineModel),
        Box::new(kfuse_core::model::SimpleModel),
        Box::new(ProposedModel::default()),
    ]
}

/// Serialize `value` to `results/<name>.json` (override the directory
/// with `KFUSE_RESULTS`).
fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from(std::env::var("KFUSE_RESULTS").unwrap_or_else(|_| "results".into()));
    let path = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value).expect("result rows serialize");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Format seconds as microseconds with 1 decimal.
fn us(t: f64) -> String {
    format!("{:.1}", t * 1e6)
}

/// Print a horizontal rule sized to `width`.
fn rule(width: usize) {
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

    /// Every word after `repro ` in `text`, where the command is quoted
    /// as `` `repro name` `` or run as `./target/release/repro name`
    /// (empty for the `repro <name>` placeholder).
    fn quoted_names(text: &str) -> Vec<&str> {
        text.match_indices("repro ")
            .filter(|&(i, _)| i > 0 && matches!(text.as_bytes()[i - 1], b'`' | b'/'))
            .map(|(i, m)| {
                let rest = &text[i + m.len()..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn the_driver_and_the_docs_agree() {
        let readme = include_str!("../../../README.md");
        let design = include_str!("../../../DESIGN.md");
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
        for (doc, text) in [("README.md", readme), ("DESIGN.md", design)] {
            for name in quoted_names(text) {
                assert!(
                    ["", "all", "--list"].contains(&name) || registered.contains(&name),
                    "{doc} quotes `repro {name}`, which is no registered experiment"
                );
            }
        }
        let in_readme = quoted_names(readme);
        for name in &registered {
            assert!(
                in_readme.contains(name),
                "README.md never quotes `repro {name}`"
            );
        }
    }
}
