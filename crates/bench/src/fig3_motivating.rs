//! Fig. 3 / §IV-B micro-benchmark: the motivating example.
//!
//! Kernels C, D, E fuse to Kernel Y. The paper measures Y at 554 µs vs an
//! original sum of 519 µs on a K20X, with the Roofline model projecting
//! 336 µs, the empirical simple model 410 µs and the proposed model 564 µs
//! — only the proposed model correctly flags the fusion as unprofitable.
//! Kernels A, B fuse to Kernel X (complex fusion with one halo layer).

use crate::{all_models, context, rule, us, write_json};
use kfuse_core::fuse::apply_plan;
use kfuse_core::spec::GroupSpec;
use kfuse_gpu::GpuSpec;
use kfuse_ir::KernelId;
use kfuse_sim::simulate_program;
use kfuse_workloads::motivating;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Result {
    original_sum_cde_us: f64,
    measured_y_us: f64,
    roofline_us: f64,
    simple_us: f64,
    proposed_us: f64,
    original_sum_ab_us: f64,
    measured_x_us: f64,
    paper: PaperRow,
}

#[derive(Serialize)]
struct PaperRow {
    original_sum_cde_us: f64,
    measured_y_us: f64,
    roofline_us: f64,
    simple_us: f64,
    proposed_us: f64,
}

/// The paper's Kernel Y numbers (µs, K20X).
const PAPER: PaperRow = PaperRow {
    original_sum_cde_us: 519.0,
    measured_y_us: 554.0,
    roofline_us: 336.0,
    simple_us: 410.0,
    proposed_us: 564.0,
};

pub fn run() {
    let gpu = GpuSpec::k20x();
    let (program, _) = motivating::program([1280, 32, 32]);
    let (relaxed, ctx) = context(&program, &gpu);

    // Model projections for Kernel Y = {C, D, E} (kernels 2, 3, 4).
    let group_y = [KernelId(2), KernelId(3), KernelId(4)];
    let spec_y = GroupSpec::synthesize(&ctx.info, &group_y);
    let original_sum_y = ctx.info.original_sum(&group_y);

    let mut proj = std::collections::BTreeMap::new();
    for m in all_models() {
        proj.insert(m.name(), m.project(&ctx.info, &spec_y));
    }

    // Apply the full Fig. 3 fusion and measure both new kernels.
    let plan = motivating::fig3_plan();
    let specs = ctx.validate(&plan).expect("fig3 plan valid");
    let fused = apply_plan(&relaxed, &ctx.info, &ctx.exec, &plan, &specs).unwrap();
    let fused_t = simulate_program(&gpu, &fused, gpu.default_precision());
    let orig_t = simulate_program(&gpu, &relaxed, gpu.default_precision());

    // Simulated time of the new kernel that absorbed original kernel `id`.
    let measured = |id: KernelId| {
        let k = fused.kernels.iter().position(|k| k.sources().contains(&id));
        fused_t.kernels[k.expect("kernel fused into a new kernel")].time_s
    };
    let (measured_x, measured_y) = (measured(KernelId(0)), measured(KernelId(2)));
    let original_sum_x: f64 = orig_t.kernels[..2].iter().map(|k| k.time_s).sum();

    println!("Fig. 3 motivating example on {}, grid 1280x32x32", gpu.name);
    rule(66);
    println!("Kernel Y = fuse(C, D, E)            ours (us)    paper (us)");
    for (label, ours, paper) in [
        (
            "original sum  (C+D+E)",
            original_sum_y,
            PAPER.original_sum_cde_us,
        ),
        ("measured Y", measured_y, PAPER.measured_y_us),
        ("Roofline projection", proj["roofline"], PAPER.roofline_us),
        ("simple-model projection", proj["simple"], PAPER.simple_us),
        (
            "proposed-model projection",
            proj["proposed"],
            PAPER.proposed_us,
        ),
    ] {
        println!("  {label:<33}{:>9}    {paper:>9}", us(ours));
    }
    rule(66);
    println!("Kernel X = fuse(A, B)  [complex fusion, 1 halo layer]");
    println!(
        "  original sum  (A+B)              {:>9}",
        us(original_sum_x)
    );
    println!("  measured X                       {:>9}", us(measured_x));
    rule(66);
    let verdict = |t: f64, s: f64| if t < s { "profitable" } else { "UNPROFITABLE" };
    println!(
        "model verdicts for Y:  roofline: {}  simple: {}  proposed: {}",
        verdict(proj["roofline"], original_sum_y),
        verdict(proj["simple"], original_sum_y),
        verdict(proj["proposed"], original_sum_y),
    );
    println!(
        "measured verdict for Y: {}",
        verdict(measured_y, original_sum_y)
    );

    write_json(
        "fig3_motivating",
        &Fig3Result {
            original_sum_cde_us: original_sum_y * 1e6,
            measured_y_us: measured_y * 1e6,
            roofline_us: proj["roofline"] * 1e6,
            simple_us: proj["simple"] * 1e6,
            proposed_us: proj["proposed"] * 1e6,
            original_sum_ab_us: original_sum_x * 1e6,
            measured_x_us: measured_x * 1e6,
            paper: PAPER,
        },
    );
}
