//! The motivating example of Fig. 3: five CUDA kernels (A–E) and the
//! fusion studied in §II-D / §IV-B — kernels A,B fuse to Kernel X (complex,
//! one halo layer) and kernels C,D,E fuse to Kernel Y (simple).
//!
//! The micro-benchmark at the end of §IV-B is the key calibration point:
//! on a K20X, Kernel Y *measured* 554 µs against an original sum of
//! 519 µs — a fusion that the Roofline model (336 µs) and the simple
//! model (410 µs) wrongly endorse, and only the proposed model (564 µs)
//! correctly rejects.
//!
//! In the paper's "before" listings Kern_A synchronizes and re-reads its
//! own output from GMEM — which is exactly the inter-block coherence
//! hazard §II-D2 describes. Our original kernels are emitted in the
//! "rigorously optimized" form (§VI-B2): the self-consumed array is staged
//! in SMEM with one halo layer, so the original program is correct under
//! the block-execution model too.

use kfuse_core::plan::FusionPlan;
use kfuse_ir::builder::ProgramBuilder;
use kfuse_ir::kernel::{Staging, StagingMedium};
use kfuse_ir::stencil::Offset;
use kfuse_ir::{ArrayId, Expr, KernelId, Program};

/// Time-step scalar `dtr` from the listings.
pub const DTR: f64 = 0.25;

/// Array handles of the motivating example, in declaration order.
#[derive(Debug, Clone, Copy)]
pub struct Arrays {
    /// Kern_A output / Kern_B input.
    pub a: ArrayId,
    /// Read-only input.
    pub b: ArrayId,
    /// Read-only input.
    pub c: ArrayId,
    /// Kern_A second output.
    pub d: ArrayId,
    /// Kern_B outputs.
    pub mx: ArrayId,
    /// Kern_B outputs.
    pub mn: ArrayId,
    /// Kern_C output.
    pub r: ArrayId,
    /// Shared input of C and E.
    pub t: ArrayId,
    /// Shared input of C and E.
    pub v: ArrayId,
    /// Kern_C second output.
    pub w: ArrayId,
    /// Kern_D output.
    pub p: ArrayId,
    /// Shared input of D and E.
    pub q: ArrayId,
    /// Kern_E output.
    pub u: ArrayId,
}

fn at(a: ArrayId) -> Expr {
    Expr::at(a)
}
fn ld(a: ArrayId, di: i8, dj: i8) -> Expr {
    Expr::load(a, Offset::new(di, dj, 0))
}

/// Build the before-fusion program on the given grid (the §IV-B
/// micro-benchmark used the SCALE-LES problem size; pass `[1280, 32, 32]`
/// to reproduce its magnitudes, or something smaller for functional tests).
pub fn program(grid: [u32; 3]) -> (Program, Arrays) {
    let mut pb = ProgramBuilder::new("fig3", grid);
    pb.launch(32, 4);
    let [a, b, c, d, mx, mn, r, t, v, w, p, q, u] = pb.arrays([
        "A", "B", "C", "D", "Mx", "Mn", "R", "T", "V", "W", "P", "Q", "U",
    ]);
    let arrays = Arrays {
        a,
        b,
        c,
        d,
        mx,
        mn,
        r,
        t,
        v,
        w,
        p,
        q,
        u,
    };

    // Kern_A: A = B + C;  D = dtr·(A + A[-1,0] + A[0,-1] + A[-1,-1]).
    pb.kernel("Kern_A")
        .write(a, at(b) + at(c))
        .write(
            d,
            (at(a) + ld(a, -1, 0) + ld(a, 0, -1) + ld(a, -1, -1)) * Expr::lit(DTR),
        )
        .build();

    // Kern_B: Mx = dtr·((A[-1,0]−A) + (A[0,-1]−A) + (A[-1,-1]−A));
    //         Mn = the negation.
    pb.kernel("Kern_B")
        .write(
            mx,
            ((ld(a, -1, 0) - at(a)) + (ld(a, 0, -1) - at(a)) + (ld(a, -1, -1) - at(a)))
                * Expr::lit(DTR),
        )
        .write(
            mn,
            ((at(a) - ld(a, -1, 0)) + (at(a) - ld(a, 0, -1)) + (at(a) - ld(a, -1, -1)))
                * Expr::lit(DTR),
        )
        .build();

    // Kern_C: R = T[-1,0] + T + T[0,-1];  W = min(V[-1,0], V).
    pb.kernel("Kern_C")
        .write(r, ld(t, -1, 0) + at(t) + ld(t, 0, -1))
        .write(w, ld(v, -1, 0).min(at(v)))
        .build();

    // Kern_D: P = (Q[-1,0]·Q[0,-1]/Q) + (Q/Q[-1,0]·Q[0,-1]).
    pb.kernel("Kern_D")
        .write(
            p,
            (ld(q, -1, 0) * ld(q, 0, -1) / at(q)) + (at(q) / ld(q, -1, 0) * ld(q, 0, -1)),
        )
        .build();

    // Kern_E: U = (T[-1,0]+T+T[0,-1]) − (Q·(Q[-1,0]−Q[0,-1]))·(V[-1,0]/V).
    pb.kernel("Kern_E")
        .write(
            u,
            (ld(t, -1, 0) + at(t) + ld(t, 0, -1))
                - (at(q) * (ld(q, -1, 0) - ld(q, 0, -1))) * (ld(v, -1, 0) / at(v)),
        )
        .build();

    let mut prog = pb.build();

    // "Rigorously optimized" originals: stage every array read with
    // thread load > 1. Kern_A's self-produced A needs one halo layer.
    for k in &mut prog.kernels {
        let reads = k.reads();
        let writes = k.writes();
        let mut staging = Vec::new();
        for &arr in reads.keys() {
            if k.thread_load(arr) > 1 {
                let halo = if writes.contains(&arr) {
                    k.read_radius(arr)
                } else {
                    0
                };
                staging.push(Staging {
                    array: arr,
                    halo,
                    medium: StagingMedium::Smem,
                });
            }
        }
        k.staging = staging;
    }

    debug_assert!(prog.validate().is_ok());
    (prog, arrays)
}

/// The fusion of Fig. 3: {A, B} → Kernel X, {C, D, E} → Kernel Y.
pub fn fig3_plan() -> FusionPlan {
    FusionPlan::new(vec![
        vec![KernelId(0), KernelId(1)],
        vec![KernelId(2), KernelId(3), KernelId(4)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_sim::{run_block_mode, run_reference, DeviceState};

    #[test]
    fn program_structure_matches_fig3() {
        let (p, arrays) = program([64, 16, 4]);
        assert_eq!(p.kernels.len(), 5);
        assert_eq!(p.arrays.len(), 13);
        // Kernel A writes A and D.
        assert_eq!(p.kernels[0].writes(), vec![arrays.a, arrays.d]);
        // A's thread load in Kern_B is 4 (four distinct positions).
        assert_eq!(p.kernels[1].thread_load(arrays.a), 4);
        // Q's thread load in Kern_D is 3.
        assert_eq!(p.kernels[3].thread_load(arrays.q), 3);
        // Kern_A self-stages A with a halo.
        assert!(p.kernels[0]
            .staging
            .iter()
            .any(|s| s.array == arrays.a && s.halo == 1));
    }

    #[test]
    fn both_fusions_validate_and_preserve_semantics() {
        let (p, _) = program([64, 16, 4]);
        let (relaxed, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let plan = fig3_plan();
        let specs = ctx.validate(&plan).expect("fig3 plan must validate");
        let fused =
            kfuse_core::fuse::apply_plan(&relaxed, &ctx.info, &ctx.exec, &plan, &specs).unwrap();
        assert_eq!(fused.kernels.len(), 2);

        let mut s_ref = DeviceState::default_init(&p);
        run_reference(&p, &mut s_ref);
        let mut s_fused = DeviceState::default_init(&fused);
        run_block_mode(&fused, &mut s_fused);
        for i in 0..p.arrays.len() {
            let a = kfuse_ir::ArrayId(i as u32);
            assert_eq!(
                s_ref.max_abs_diff(&s_fused, a),
                0.0,
                "array {} diverged",
                p.array(a).name
            );
        }
    }

    #[test]
    fn kernel_x_is_complex_kernel_y_is_simple() {
        let (p, arrays) = program([64, 16, 4]);
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let specs = ctx.validate(&fig3_plan()).unwrap();
        // Group 0 = {A, B}: A is produced and consumed at radius → complex.
        let x = &specs[0];
        assert!(x.complex, "Kernel X needs a barrier and halo");
        assert!(x.pivot(arrays.a).unwrap().halo >= 1);
        // Group 1 = {C, D, E}: only clean shared inputs → simple.
        let y = &specs[1];
        assert!(!y.complex, "Kernel Y is a simple fusion");
        let pivots: Vec<ArrayId> = y.pivots.iter().map(|p| p.array).collect();
        assert!(pivots.contains(&arrays.t));
        assert!(pivots.contains(&arrays.q));
        assert!(pivots.contains(&arrays.v));
    }
}
