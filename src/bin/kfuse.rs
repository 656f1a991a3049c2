//! `kfuse` — command-line driver for the kernel-fusion pipeline.
//!
//! Programs are exchanged as JSON-serialized `kfuse_ir::Program` values;
//! `kfuse example <name>` dumps the built-in workloads to get started.
//!
//! ```text
//! kfuse example rk3 > rk3.json        # dump a built-in program
//! kfuse analyze rk3.json              # graphs, classes, KF03 module analysis
//! kfuse analyze rk3.json --fuse --json  # analyze the fused module, JSON out
//! kfuse fuse rk3.json --gpu k20x      # search + fuse + simulate
//! kfuse fuse rk3.json --emit-cuda out.cu
//! kfuse solve synth60 --trace t.json  # search only, with a chrome trace
//! kfuse stats rk3.json                # solve and print the metrics table
//! kfuse simulate rk3.json             # per-kernel timing table
//! kfuse codegen rk3.json > rk3.cu     # CUDA C for the program as-is
//! kfuse verify rk3.json --plan p.json # independent plan + hazard check
//! kfuse lint rk3.json --fuse          # lint the generated CUDA text
//! ```
//!
//! `solve` and `stats` accept either a program JSON path or a built-in
//! example name (`kfuse solve synth60` traces the 60-kernel scaling
//! workload without an intermediate file).

use kernel_fusion::prelude::*;
use kfuse_core::depgraph::{DependencyGraph, TouchClass};
use kfuse_core::efficiency::reducible_traffic;
use kfuse_core::fuse::apply_plan;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         kfuse example <quickstart|rk3|fig3|scale-les|homme|suite|synthN>  (N<=200 scaling, N>200 clustered)\n  \
         kfuse analyze  <program.json> [--gpu k20x|k40|gtx750ti] [--fuse] [--seed N] [--json]\n             \
                        [--dot-deps FILE] [--dot-exec FILE]\n  \
         kfuse simulate <program.json> [--gpu ...]\n  \
         kfuse fuse     <program.json> [--gpu ...] [--seed N] [--emit-cuda FILE] [--plan-out FILE]\n  \
         kfuse solve    <program.json|example> [--gpu ...] [--solver hgga|hgga-hier|greedy|exhaustive]\n             \
                        [--seed N] [--partition auto|off|MAX_REGION]\n             \
                        [--cache-dir DIR] [--budget-ms N]\n             \
                        [--trace FILE] [--metrics FILE] [--plan-out FILE]\n  \
         kfuse stats    <program.json|example> [any solve flag]\n  \
         kfuse codegen  <program.json> [--single]\n  \
         kfuse verify   <program.json> [--gpu ...] [--plan FILE] [--json]\n  \
         kfuse lint     <program.json|kernels.cu> [--gpu ...] [--fuse] [--seed N] [--json]\n  \
         kfuse serve    (--socket PATH | --stdin) [--workers N] [--queue-depth N]\n             \
                        [--cache-dir DIR] [--gpu ...] [--seed N] [--retry-after-ms N]"
    );
    ExitCode::from(2)
}

/// The device named by `--gpu` (K20X when the flag is absent). An unknown
/// name is an error, worded like the daemon's `unsupported` rejection.
fn parse_gpu(args: &[String]) -> Result<GpuSpec, String> {
    let name = flag_value(args, "--gpu")?.unwrap_or_else(|| "k20x".into());
    GpuSpec::by_name(&name).ok_or_else(|| format!("unknown gpu `{name}` (try k20x, k40, gtx750ti)"))
}

/// Value of `flag`, or `None` when the flag is absent. A flag that ends
/// the argument list, with no value after it, is an error naming the flag.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} expects a value")),
        },
    }
}

/// Numeric value of `flag`, or `default` when the flag is absent. A
/// missing or unparseable value is an error, never a silent fallback.
fn flag_num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("{flag} expects a number, got `{s}`")),
    }
}

/// A subcommand's entry point.
type Run = fn(&[String]) -> Result<(), String>;

/// `solve` and `stats` share one argument parser, so one flag list.
const SOLVE_FLAGS: &str =
    "--gpu --solver --seed --partition --cache-dir --budget-ms --trace --metrics --plan-out";

/// Every subcommand with the one list of flags it accepts.
const COMMANDS: &[(&str, Run, &str)] = &[
    ("example", cmd_example, ""),
    (
        "analyze",
        cmd_analyze,
        "--gpu --seed --dot-deps --dot-exec --fuse --json",
    ),
    ("simulate", cmd_simulate, "--gpu"),
    ("fuse", cmd_fuse, "--gpu --seed --emit-cuda --plan-out"),
    ("solve", |args| cmd_solve(args, true), SOLVE_FLAGS),
    ("stats", |args| cmd_solve(args, false), SOLVE_FLAGS),
    ("codegen", cmd_codegen, "--single"),
    ("verify", cmd_verify, "--gpu --plan --json"),
    ("lint", cmd_lint, "--gpu --seed --fuse --json"),
    (
        "serve",
        cmd_serve,
        "--socket --stdin --workers --queue-depth --cache-dir --gpu --seed --retry-after-ms",
    ),
];

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let p: Program =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    p.validate().map_err(|e| format!("invalid program: {e}"))?;
    Ok(p)
}

/// Algorithm 1 end to end under the flat HGGA seeded by `--seed`
/// (default 17) and the proposed model: the run behind `fuse`,
/// `analyze --fuse` and `lint --fuse`.
fn fuse_pipeline(
    p: &Program,
    gpu: &GpuSpec,
    args: &[String],
) -> Result<pipeline::PipelineResult, String> {
    let solver = HggaSolver::with_seed(flag_num(args, "--seed", 17)?);
    let model = ProposedModel::default();
    pipeline::run(p, gpu, gpu.default_precision(), &model, &solver).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(&(name, run, flags)) = COMMANDS.iter().find(|c| c.0 == cmd.as_str()) else {
        return usage();
    };
    let rest = &args[1..];
    // Refuse any `--flag` the subcommand does not accept before it runs: a
    // misspelled flag would otherwise be ignored, and the run would quietly
    // use that flag's default.
    let unknown = rest
        .iter()
        .find(|a| a.starts_with("--") && !flags.split(' ').any(|f| f == a.as_str()));
    let result = match unknown {
        Some(flag) => Err(format!("kfuse {name}: unknown flag `{flag}`")),
        None => run(rest),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build a built-in example program by name. `synth<N>` (e.g. `synth60`)
/// is the N-kernel scaling-study workload from `kfuse_workloads::synth`
/// up to 200 kernels; above that it is the clustered large-program
/// workload of the hierarchical-planning study (`synth1000`, `synth5000`,
/// `synth10000`). The daemon resolves the same names per request, so the
/// list lives in `kfuse_workloads::by_name`.
fn builtin_program(name: &str) -> Option<Program> {
    kfuse_workloads::by_name(name)
}

fn cmd_example(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("example name required".into());
    };
    let p = builtin_program(name).ok_or_else(|| format!("unknown example `{name}`"))?;
    let json = serde_json::to_string_pretty(&p).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program path required".into());
    };
    let p = load_program(path)?;
    let gpu = parse_gpu(args)?;
    let json = args.iter().any(|a| a == "--json");

    // Program whose generated GPU module gets the structured KF03xx
    // analysis: the input as-is, or the fused result of a full pipeline
    // run under `--fuse`.
    let fused;
    let analyzed: &Program = if args.iter().any(|a| a == "--fuse") {
        fused = fuse_pipeline(&p, &gpu, args)?.fused;
        &fused
    } else {
        &p
    };

    if json {
        // Machine-readable mode: the analysis report is the whole output.
        return analyze_structured(analyzed, true);
    }

    println!("program `{}`", p.name);
    println!(
        "  grid {}x{}x{}, block {}x{} ({} blocks)",
        p.grid.nx,
        p.grid.ny,
        p.grid.nz,
        p.launch.block_x,
        p.launch.block_y,
        p.blocks()
    );
    println!(
        "  {} kernels, {} arrays, {} host syncs",
        p.kernels.len(),
        p.arrays.len(),
        p.host_syncs.len()
    );

    let dep = DependencyGraph::build(&p);
    let count = |c: TouchClass| dep.classes.iter().filter(|&&x| x == c).count();
    println!(
        "  touch classes: {} read-only / {} read-write / {} expandable / {} write-only",
        count(TouchClass::ReadOnly),
        count(TouchClass::ReadWrite),
        count(TouchClass::ExpandableReadWrite),
        count(TouchClass::WriteOnly)
    );
    println!("  sharing sets: {}", dep.sharing_set_count());

    let ctx = pipeline::prepare_owned(p.clone(), &gpu, gpu.default_precision());
    if let Some(out) = flag_value(args, "--dot-deps")? {
        let dot = kfuse_core::dot::dependency_dot(&p, &dep);
        std::fs::write(&out, dot).map_err(|e| e.to_string())?;
        println!("  wrote dependency graph to {out}");
    }
    if let Some(out) = flag_value(args, "--dot-exec")? {
        let dot = kfuse_core::dot::exec_order_dot(
            &p,
            &kfuse_core::exec_order::ExecOrderGraph::build(&p),
            None,
        );
        std::fs::write(&out, dot).map_err(|e| e.to_string())?;
        println!("  wrote order-of-execution graph to {out}");
    }
    let red = reducible_traffic(&ctx);
    println!(
        "  reducible GMEM traffic on {}: {:.1}% ({:.1} MB of {:.1} MB)",
        gpu.name,
        100.0 * red.fraction(),
        (red.original_bytes - red.max_fused_bytes) as f64 / 1e6,
        red.original_bytes as f64 / 1e6
    );
    analyze_structured(analyzed, false)
}

/// Build the GPU module for `p` and run the structured KF03xx analysis
/// passes over it, reporting through [`finish_report`] (nonzero exit on
/// any analysis error).
fn analyze_structured(p: &Program, json: bool) -> Result<(), String> {
    let opts = kfuse_codegen::CodegenOptions::default();
    let module = kfuse_codegen::build_module(p, &opts);
    let metrics = kernel_fusion::obs::MetricsRegistry::new();
    let report = kernel_fusion::verify::analyze_module_counted(
        &module,
        kernel_fusion::obs::ObsHandle::disabled(),
        &metrics,
    );
    if !json {
        println!(
            "  module analysis: {} kernel(s), {} diagnostic(s)",
            module.kernels.len(),
            report.diagnostics.len()
        );
    }
    finish_report(report, json)
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program path required".into());
    };
    let p = load_program(path)?;
    let gpu = parse_gpu(args)?;
    let t = simulate_program(&gpu, &p, gpu.default_precision());
    println!(
        "{:<40} {:>10} {:>10} {:>9} {:>7}",
        "kernel", "time (us)", "gmem (us)", "occupancy", "regs"
    );
    println!("{}", "-".repeat(82));
    for k in &t.kernels {
        println!(
            "{:<40} {:>10.2} {:>10.2} {:>8.0}% {:>7}",
            kfuse_core::util::truncate_str(&k.name, 38),
            k.time_s * 1e6,
            k.gmem_s * 1e6,
            k.occupancy.occupancy * 100.0,
            k.regs_per_thread
        );
    }
    println!("{}", "-".repeat(82));
    println!("total: {:.2} us on {}", t.total_s * 1e6, gpu.name);
    Ok(())
}

fn cmd_fuse(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program path required".into());
    };
    let p = load_program(path)?;
    let gpu = parse_gpu(args)?;
    let r = fuse_pipeline(&p, &gpu, args)?;

    println!(
        "fused {} of {} kernels into {} new kernels ({} calls total)",
        r.fused_kernel_count(),
        p.kernels.len(),
        r.new_kernel_count(),
        r.fused.kernels.len()
    );
    for (gi, g) in r.plan.groups.iter().enumerate() {
        if g.len() < 2 {
            continue;
        }
        let names: Vec<&str> = g
            .iter()
            .map(|&k| r.relaxed.kernel(k).name.as_str())
            .collect();
        let spec = &r.specs[gi];
        println!(
            "  {} <- {:?}{}",
            gi,
            names,
            if spec.complex { "  [complex]" } else { "" }
        );
    }
    println!(
        "simulated on {}: {:.2} ms -> {:.2} ms  (speedup {:.3}x)",
        gpu.name,
        r.original_timing.total_s * 1e3,
        r.fused_timing.total_s * 1e3,
        r.speedup()
    );
    println!(
        "search: {} generations, {} evaluations, {:?}",
        r.stats.generations, r.stats.evaluations, r.stats.elapsed
    );

    if let Some(out) = flag_value(args, "--plan-out")? {
        let json = serde_json::to_string_pretty(&r.plan).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        println!("wrote plan to {out}");
    }
    if let Some(out) = flag_value(args, "--emit-cuda")? {
        let opts = kfuse_codegen::CodegenOptions::default();
        let code = kfuse_codegen::emit_program(&r.fused, &opts);
        std::fs::write(&out, code).map_err(|e| e.to_string())?;
        println!("wrote fused CUDA C to {out}");
    }
    // Always re-apply + verify determinism of the plan as a sanity check.
    let specs = r.ctx.validate(&r.plan).map_err(|e| e.to_string())?;
    apply_plan(&r.relaxed, &r.ctx.info, &r.ctx.exec, &r.plan, &specs).map_err(|e| e.to_string())?;
    Ok(())
}

/// `kfuse solve` / `kfuse stats`: run the search only (no fusion apply or
/// simulation), with optional chrome-trace and metrics-dump output.
/// `stats` is `solve` reduced to the human metrics table.
fn cmd_solve(args: &[String], full_output: bool) -> Result<(), String> {
    use kernel_fusion::obs::{InMemoryRecorder, ObsHandle};

    let Some(target) = args.first() else {
        return Err("program path or example name required".into());
    };
    let p = if std::path::Path::new(target).exists() {
        load_program(target)?
    } else {
        builtin_program(target)
            .ok_or_else(|| format!("`{target}` is neither a file nor a built-in example"))?
    };
    let gpu = parse_gpu(args)?;
    let seed = flag_num(args, "--seed", 17)?;

    let partition = match flag_value(args, "--partition")? {
        Some(v) => Some(v.parse::<PartitionMode>()?),
        None => None,
    };
    let cache_dir = flag_value(args, "--cache-dir")?.map(std::path::PathBuf::from);
    let budget = flag_value(args, "--budget-ms")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--budget-ms expects whole milliseconds, got `{s}`"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis);
    // Plan reuse and deadlines live in `WarmSolver`, the wrapper around
    // the GA; the enumerative solvers have no generations to cut short.
    let reuse = cache_dir.is_some() || budget.is_some();

    let requested = flag_value(args, "--solver")?;
    // `hgga` is `hgga-hier` with partitioning off (that mode delegates to
    // the flat GA bit for bit); `--partition` asks for the decomposition
    // layer whichever name was given.
    let flat = partition.is_none() && matches!(requested.as_deref(), None | Some("hgga"));
    let solver: Box<dyn Solver> = match requested.as_deref() {
        Some(other @ ("greedy" | "exhaustive")) if reuse => {
            return Err(format!(
                "--cache-dir/--budget-ms require a GA solver; `{other}` does not support them"
            ));
        }
        None | Some("hgga") | Some("hgga-hier") => {
            let mut s = HggaHierSolver::with_seed(seed);
            s.partition = match partition {
                Some(mode) => mode,
                None if flat => PartitionMode::Off,
                None => PartitionMode::Auto,
            };
            if reuse {
                Box::new(WarmSolver::new(s, cache_dir, budget))
            } else {
                Box::new(s)
            }
        }
        Some("greedy") => Box::new(GreedySolver),
        Some("exhaustive") => {
            let s = ExhaustiveSolver::default();
            if p.kernels.len() > s.max_kernels {
                return Err(format!(
                    "the exhaustive solver enumerates all set partitions and is capped at \
                     {} kernels (Bell-number blowup); `{target}` has {} — \
                     use --solver hgga or hgga-hier instead",
                    s.max_kernels,
                    p.kernels.len()
                ));
            }
            Box::new(s)
        }
        Some(other) => return Err(format!("unknown solver `{other}`")),
    };
    // Report the solver the user named, not the type that carries it.
    let name = if flat && !reuse {
        "hgga"
    } else {
        solver.name()
    };

    let ctx = pipeline::prepare_owned(p, &gpu, gpu.default_precision());
    let model = ProposedModel::default();
    let trace_out = flag_value(args, "--trace")?;
    let recorder = trace_out.as_ref().map(|_| InMemoryRecorder::new());
    let obs = match &recorder {
        Some(rec) => ObsHandle::new(rec),
        None => ObsHandle::disabled(),
    };
    let out = solver.solve_observed(&ctx, &model, obs);

    if full_output {
        println!(
            "solver {}: objective {:.6e} over {} kernels in {} groups ({:?})",
            name,
            out.objective,
            ctx.n_kernels(),
            out.plan.groups.len(),
            out.stats.elapsed
        );
        println!();
    }
    print!("{}", out.metrics.render_table());
    // Derived view over the batch counters: average candidate lanes per
    // scoring sweep (up to 8, 0 when the run never batch-scored).
    println!(
        "{:<20}  {:>20.6}",
        "avg_batch_fill", out.stats.avg_batch_fill
    );

    if let Some(path) = trace_out {
        let rec = recorder.as_ref().expect("recorder exists when tracing");
        let json = kernel_fusion::obs::chrome_trace(rec);
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote chrome trace ({} events) to {path}", rec.len());
    }
    if let Some(path) = flag_value(args, "--metrics")? {
        std::fs::write(&path, out.metrics.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote metrics dump to {path}");
    }
    if let Some(path) = flag_value(args, "--plan-out")? {
        let json = serde_json::to_string_pretty(&out.plan).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote plan to {path}");
    }

    // Consistency guard: the legacy stats view must stay derivable from
    // the registry snapshot (the regression tests pin this per solver).
    debug_assert_eq!(
        out.stats.evaluations,
        out.metrics.get(kernel_fusion::obs::Counter::MemoMisses)
    );
    Ok(())
}

/// Print a verifier report and turn errors into a nonzero exit.
///
/// Reports are sorted (code, then span) before rendering so `verify`,
/// `lint`, and `analyze` output is deterministic across runs.
fn finish_report(report: kernel_fusion::verify::Report, json: bool) -> Result<(), String> {
    let report = report.sorted();
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} verification error(s) found",
            report.error_count()
        ))
    }
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program path required".into());
    };
    let p = load_program(path)?;
    let gpu = parse_gpu(args)?;
    let json = args.iter().any(|a| a == "--json");
    let ctx = pipeline::prepare_owned(p, &gpu, gpu.default_precision());
    let relaxed = ctx.program.as_ref().expect("prepare attaches the program");

    let plan = match flag_value(args, "--plan")? {
        Some(f) => {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("cannot read {f}: {e}"))?;
            serde_json::from_str::<FusionPlan>(&text)
                .map_err(|e| format!("cannot parse {f}: {e}"))?
        }
        None => FusionPlan::identity(relaxed.kernels.len()),
    };

    let model = ProposedModel::default();
    let mut report = kernel_fusion::verify::check_plan(&ctx.info, &plan, Some(&model));
    // Hazard-check the relaxed IR, and — when the plan is feasible — the
    // fused program it produces.
    report.extend(kernel_fusion::verify::check_program(relaxed));
    if report.is_clean() {
        if let Ok(specs) = ctx.validate(&plan) {
            let fused = apply_plan(relaxed, &ctx.info, &ctx.exec, &plan, &specs)
                .map_err(|e| e.to_string())?;
            report.extend(kernel_fusion::verify::check_program(&fused));
        }
    }
    finish_report(report, json)
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program or .cu path required".into());
    };
    let json = args.iter().any(|a| a == "--json");
    let cuda = if path.ends_with(".cu") {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        let p = load_program(path)?;
        let opts = kfuse_codegen::CodegenOptions::default();
        if args.iter().any(|a| a == "--fuse") {
            let fused = fuse_pipeline(&p, &parse_gpu(args)?, args)?.fused;
            kfuse_codegen::emit_program(&fused, &opts)
        } else {
            kfuse_codegen::emit_program(&p, &opts)
        }
    };
    finish_report(kernel_fusion::verify::lint(&cuda), json)
}

fn cmd_codegen(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("program path required".into());
    };
    let p = load_program(path)?;
    let opts = kfuse_codegen::CodegenOptions {
        double_precision: !args.iter().any(|a| a == "--single"),
        restrict: true,
    };
    print!("{}", kfuse_codegen::emit_program(&p, &opts));
    Ok(())
}

/// `kfuse serve`: run the `kfused` planning daemon. JSONL requests over
/// a Unix socket (`--socket PATH`) or stdin (`--stdin`); the wire
/// protocol is documented in SERVING.md. `--workers 1` (the default) is
/// the deterministic mode: same request stream, same byte stream.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let cfg = kfuse_serve::ServeConfig {
        workers: flag_num(args, "--workers", 1)? as usize,
        queue_depth: flag_num(args, "--queue-depth", 64)?.max(1) as usize,
        cache_dir: flag_value(args, "--cache-dir")?.map(std::path::PathBuf::from),
        gpu: flag_value(args, "--gpu")?.unwrap_or_else(|| "k20x".into()),
        seed: flag_num(args, "--seed", 17)?,
        retry_after_ms: flag_num(args, "--retry-after-ms", 50)?,
    };
    // The daemon resolves device names per request; refuse an unknown
    // default before any socket is bound.
    parse_gpu(args)?;
    let socket = flag_value(args, "--socket")?;
    let use_stdin = args.iter().any(|a| a == "--stdin");
    match (socket, use_stdin) {
        (Some(path), false) => kfuse_serve::serve_unix(cfg, std::path::Path::new(&path))
            .map_err(|e| format!("serve on {path}: {e}")),
        (None, true) => kfuse_serve::serve_stdin(cfg).map_err(|e| format!("serve on stdin: {e}")),
        (Some(_), true) => Err("choose one of --socket and --stdin".into()),
        (None, false) => Err("serve needs --socket PATH or --stdin".into()),
    }
}
