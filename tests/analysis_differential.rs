//! Differential tests between the KF02xx CUDA-text lint and the KF03xx
//! structured module analysis, plus the golden byte-identity check of
//! the module printer against digests of the direct emitter it replaced.
//!
//! The contract pinned here (see `DESIGN.md` §14):
//!
//! 1. Modules built from accepted programs — the six built-in workloads
//!    and randomized synthetic programs, identity and fused — analyze
//!    with **zero errors**.
//! 2. The module pipeline (`build_module` → `print_module`) reproduces
//!    the direct emitter's text byte for byte on the built-ins, checked
//!    against digests recorded from it before it was deleted.
//! 3. Broken modules (dropped barriers, unguarded stores, unpadded
//!    tiles, widened tile offsets) trip the expected KF03 code, and
//!    every finding of the text lint on the printed mutant has a KF03
//!    counterpart: `KF0201→KF0306`, `KF0202/KF0203→KF0301`,
//!    `KF0204/KF0205→KF0305`. The structured analysis subsumes the
//!    text lint.
//! 4. The PR-2 missing-`__syncthreads()` bug (fig3 `Kern_A`) is caught
//!    structurally, without ever rendering text.

use kernel_fusion::prelude::*;
use kfuse_codegen::module::{AccessKind, CExpr, GpuModule, StageDecl, Stmt};
use kfuse_codegen::{build_module, print_module, CodegenOptions};
use kfuse_ir::StagingMedium;
use kfuse_verify::diag;
use kfuse_verify::{analyze_module, lint, Report};
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

/// The six built-in workloads on test-sized grids.
fn builtins() -> Vec<(&'static str, Program)> {
    let quickstart = {
        let mut pb = ProgramBuilder::new("quickstart", [256, 128, 16]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.build()
    };
    let suite = kfuse_workloads::TestSuite::generate_on_grid(
        &kfuse_workloads::SuiteParams {
            kernels: 12,
            arrays: 24,
            ..Default::default()
        },
        [96, 32, 4],
        (32, 4),
    );
    vec![
        ("quickstart", quickstart),
        ("rk3", kfuse_workloads::scale_les::rk_core([96, 32, 4])),
        ("fig3", kfuse_workloads::motivating::program([64, 16, 4]).0),
        (
            "scale-les",
            kfuse_workloads::scale_les::full_on_grid([96, 32, 2]),
        ),
        ("homme", kfuse_workloads::homme::full_on_grid([52, 26, 4])),
        ("suite", suite),
    ]
}

fn quick_solver(seed: u64) -> HggaSolver {
    HggaSolver {
        config: HggaConfig {
            population: 40,
            max_generations: 120,
            stall_generations: 25,
            seed,
            ..HggaConfig::default()
        },
    }
}

/// Run the full pipeline and return the fused program.
fn fuse(p: &Program, seed: u64) -> Program {
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    pipeline::run(p, &gpu, FpPrecision::Double, &model, &quick_solver(seed))
        .expect("pipeline succeeds")
        .fused
}

// ---------------------------------------------------------------------
// 1. Accepted programs analyze clean.
// ---------------------------------------------------------------------

#[test]
fn builtin_modules_analyze_without_errors() {
    let opts = CodegenOptions::default();
    for (name, p) in builtins() {
        let fused = fuse(&p, 3);
        for (tag, prog) in [("identity", &p), ("fused", &fused)] {
            let m = build_module(prog, &opts);
            let r = analyze_module(&m);
            assert_eq!(
                r.error_count(),
                0,
                "{name}/{tag} module has analysis errors:\n{}",
                r.render_human()
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. Golden byte-identity: module printer == recorded emitter text.
// ---------------------------------------------------------------------

/// FNV-1a over a text's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(built-in, program, options, plan, CUDA text)`: the plan digest is
/// FNV-1a of the compact JSON of the plan the fused program was built
/// from (`None` for the unfused program), the text digest FNV-1a of what
/// the direct emitter printed for the whole program. `f64` is the
/// default options, `f32` single precision without `__restrict__`.
type Printed = (&'static str, &'static str, &'static str, Option<u64>, u64);

#[rustfmt::skip]
const PRINTED: &[Printed] = &[
    ("quickstart", "identity", "f64", None, 0xa1e2c4aee8bd28de),
    ("quickstart", "fused", "f64", Some(0x915c9d53d72fee66), 0x047bfa4d829aad0a),
    ("quickstart", "identity", "f32", None, 0xa13b10e6848b10d1),
    ("quickstart", "fused", "f32", Some(0x915c9d53d72fee66), 0x0792b9bec016d830),
    ("rk3", "identity", "f64", None, 0x9e16d615e9a3d05f),
    ("rk3", "fused", "f64", Some(0x7f798dee6a8d2ff2), 0x5ca9c1c07517c5b5),
    ("rk3", "identity", "f32", None, 0x39af8a54b88c16ff),
    ("rk3", "fused", "f32", Some(0x7f798dee6a8d2ff2), 0xfbbf41746cfc6a57),
    ("fig3", "identity", "f64", None, 0xbb7b2182aafb55df),
    ("fig3", "fused", "f64", Some(0xd7ea0075de62cdc1), 0x1bb5e812b871f778),
    ("fig3", "identity", "f32", None, 0x5b59821ebc9a53e9),
    ("fig3", "fused", "f32", Some(0xd7ea0075de62cdc1), 0x5831b0c8b986015e),
    ("scale-les", "identity", "f64", None, 0x6e433645f3aa3c71),
    ("scale-les", "fused", "f64", Some(0xa08ba27616cd8bfa), 0x05406e35d41fd7f1),
    ("scale-les", "identity", "f32", None, 0x90210f587e99310f),
    ("scale-les", "fused", "f32", Some(0xa08ba27616cd8bfa), 0xb8b7aa6f6288f6bf),
    ("homme", "identity", "f64", None, 0xede254c8a15dc6bf),
    ("homme", "fused", "f64", Some(0xdb827aaf063029a4), 0xf3d8a3d31bb6db65),
    ("homme", "identity", "f32", None, 0xdbc25e21acb3dfa7),
    ("homme", "fused", "f32", Some(0xdb827aaf063029a4), 0xd0c41bcab9ca527e),
    ("suite", "identity", "f64", None, 0xecb0538d86d5da74),
    ("suite", "fused", "f64", Some(0xf9480e3aac84f9af), 0x710d47e169d0df1e),
    ("suite", "identity", "f32", None, 0x539aecc7f3c343f2),
    ("suite", "fused", "f32", Some(0xf9480e3aac84f9af), 0x66fc4769c8340ab6),
];

/// The module printer reproduces, byte for byte, what the direct
/// (pre-module-IR) emitter printed for every built-in, identity and
/// fused, in both option sets: the digests were recorded from that
/// emitter before it was deleted. Plans are compared first, so a search
/// change fails as "re-record", never as a printer regression.
#[test]
fn printer_is_byte_identical_to_reference_on_builtins() {
    let options = [
        ("f64", CodegenOptions::default()),
        (
            "f32",
            CodegenOptions {
                double_precision: false,
                restrict: false,
            },
        ),
    ];
    let mut actual: Vec<Printed> = Vec::new();
    for (name, p) in builtins() {
        let r = pipeline::run(
            &p,
            &GpuSpec::k20x(),
            FpPrecision::Double,
            &ProposedModel::default(),
            &quick_solver(3),
        )
        .expect("pipeline succeeds");
        let plan = fnv1a(serde_json::to_string(&r.plan).unwrap().as_bytes());
        for (precision, opts) in &options {
            for (tag, prog, plan) in [("identity", &p, None), ("fused", &r.fused, Some(plan))] {
                let text = print_module(&build_module(prog, opts));
                actual.push((name, tag, *precision, plan, fnv1a(text.as_bytes())));
            }
        }
    }
    if actual != PRINTED {
        for (name, tag, precision, plan, text) in &actual {
            let plan = plan.map_or("None".into(), |d| format!("Some({d:#018x})"));
            eprintln!("    ({name:?}, {tag:?}, {precision:?}, {plan}, {text:#018x}),");
        }
        let plans_moved = actual
            .iter()
            .map(|row| row.3)
            .ne(PRINTED.iter().map(|row| row.3));
        panic!(
            "{}",
            if plans_moved {
                "a fused plan moved, so its text cannot be compared: re-record the rows above"
            } else {
                "the printed CUDA moved with the plans unchanged: the printer regressed"
            }
        );
    }
}

// ---------------------------------------------------------------------
// 4. fig3 Kern_A regression: dropped planned barrier caught
//    structurally (no text lint involved).
// ---------------------------------------------------------------------

#[test]
fn fig3_dropped_segment_barrier_is_caught_structurally() {
    let p = kfuse_workloads::motivating::program([64, 16, 4]).0;
    let fused = fuse(&p, 3);
    let mut m = build_module(&fused, &CodegenOptions::default());
    let k = m
        .kernels
        .iter_mut()
        .find(|k| k.segment_count() >= 2 && k.planned_barrier_count() > 0)
        .expect("the fig3 plan fuses dependent kernels into a Kern_A-style kernel");
    // The PR-2 emitter bug produced Kern_A with no `__syncthreads()` at
    // all between the producer's tile store and the consumer's neighbor
    // reads; model it by dropping every barrier in that kernel. (The
    // planned `SegmentBoundary` barrier alone is not enough to break
    // it: the dirty-tile barrier inside the first segment still
    // separates the write from every read.)
    let before = k.body.len();
    k.body.retain(|s| !matches!(s, Stmt::Barrier { .. }));
    assert!(k.body.len() < before, "barriers were dropped");
    let r = analyze_module(&m);
    assert!(
        r.has_code(diag::KF_RACE_WRITE_READ),
        "missing inter-segment barrier must surface as KF0301:\n{}",
        r.render_human()
    );
    assert!(r.error_count() > 0);
}

// ---------------------------------------------------------------------
// 3. Mutation corpus + KF02/KF03 subsumption differential.
// ---------------------------------------------------------------------

fn small_config(seed: u64, kernels: usize) -> SynthConfig {
    SynthConfig {
        name: format!("diff_{seed}"),
        kernels,
        arrays: kernels * 2,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob: 0.5,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed,
    }
}

/// Remove every `__syncthreads()` from every kernel body.
fn drop_barriers(m: &mut GpuModule) -> bool {
    let mut changed = false;
    for k in &mut m.kernels {
        let before = k.body.len();
        k.body.retain(|s| !matches!(s, Stmt::Barrier { .. }));
        changed |= k.body.len() < before;
    }
    changed
}

/// Strip the `if (i < NX && j < NY)` guard from every global store.
fn unguard_stores(m: &mut GpuModule) -> bool {
    let mut changed = false;
    for k in &mut m.kernels {
        for s in &mut k.body {
            if let Stmt::Compute(c) = s {
                if let Some(gs) = &mut c.global_store {
                    changed |= gs.guarded;
                    gs.guarded = false;
                }
            }
        }
    }
    changed
}

/// Drop the bank-conflict padding column from every SMEM tile.
fn unpad_tiles(m: &mut GpuModule) -> bool {
    let mut changed = false;
    for k in &mut m.kernels {
        for st in &mut k.stages {
            if st.medium == StagingMedium::Smem && st.padded {
                st.padded = false;
                changed = true;
            }
        }
    }
    changed
}

/// Push every provably-in-tile access one cell past its declared halo.
fn widen_tile_offsets(m: &mut GpuModule) -> bool {
    fn widen(expr: &mut CExpr, stages: &[StageDecl]) -> bool {
        match expr {
            CExpr::Const(_) => false,
            CExpr::Bin { lhs, rhs, .. } => {
                let l = widen(lhs, stages);
                let r = widen(rhs, stages);
                l || r
            }
            CExpr::Access(a) => {
                if let AccessKind::Tile { stage } = a.kind {
                    a.offset.di = (stages[stage].halo + 1) as i8;
                    true
                } else {
                    false
                }
            }
        }
    }
    let mut changed = false;
    for k in &mut m.kernels {
        for s in &mut k.body {
            if let Stmt::Compute(c) = s {
                changed |= widen(&mut c.expr, &k.stages);
            }
        }
    }
    changed
}

/// The KF02 → KF03 subsumption map: every text-lint finding on a
/// printed module must have a structured counterpart in the analysis
/// report of the same module.
fn assert_lint_subsumed(linted: &Report, analysis: &Report) {
    for d in &linted.diagnostics {
        let counterpart = match d.code {
            "KF0201" => "KF0306",
            "KF0202" | "KF0203" => "KF0301",
            "KF0204" | "KF0205" => "KF0305",
            _ => continue,
        };
        assert!(
            analysis.has_code(counterpart),
            "lint finding {} (`{}`) has no {} counterpart in:\n{}",
            d.code,
            d.explanation,
            counterpart,
            analysis.render_human()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized synthetic programs produce modules that analyze
    /// without errors, identity and fused.
    #[test]
    fn synth_modules_analyze_without_errors(seed in 0u64..1000, kernels in 4usize..12) {
        let p = generate(&small_config(seed, kernels));
        let fused = fuse(&p, seed);
        for prog in [&p, &fused] {
            let m = build_module(prog, &CodegenOptions::default());
            let r = analyze_module(&m);
            prop_assert!(
                r.error_count() == 0,
                "synth module has analysis errors:\n{}",
                r.render_human()
            );
        }
    }

    /// Each mutation class trips its expected KF03 code, and the text
    /// lint on the printed mutant is fully subsumed by the analysis.
    #[test]
    fn mutated_modules_trip_kf03_and_subsume_kf02(
        seed in 0u64..500,
        kernels in 4usize..12,
        mutation in 0usize..4,
    ) {
        let p = generate(&small_config(seed, kernels));
        let mut m = build_module(&p, &CodegenOptions::default());
        let (changed, expected) = match mutation {
            0 => (drop_barriers(&mut m), diag::KF_RACE_WRITE_READ),
            1 => (unguard_stores(&mut m), diag::KF_BOUNDS_UNPROVEN),
            2 => (unpad_tiles(&mut m), diag::KF_TILE_UNPADDED),
            _ => (widen_tile_offsets(&mut m), diag::KF_BOUNDS_UNPROVEN),
        };
        if changed {
            let analysis = analyze_module(&m);
            prop_assert!(
                analysis.has_code(expected),
                "mutation {mutation} did not trip {expected}:\n{}",
                analysis.render_human()
            );
            let linted = lint(&print_module(&m));
            assert_lint_subsumed(&linted, &analysis);
        }
    }

    /// The subsumption also holds with all mutations applied at once.
    #[test]
    fn combined_mutants_keep_lint_subsumed(seed in 0u64..200, kernels in 4usize..10) {
        let p = generate(&small_config(seed, kernels));
        let mut m = build_module(&p, &CodegenOptions::default());
        let changed = drop_barriers(&mut m)
            | unguard_stores(&mut m)
            | unpad_tiles(&mut m)
            | widen_tile_offsets(&mut m);
        if changed {
            let analysis = analyze_module(&m);
            let linted = lint(&print_module(&m));
            assert_lint_subsumed(&linted, &analysis);
        }
    }
}
