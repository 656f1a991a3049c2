//! The CUDA C emitter — public entry points.
//!
//! Emission is a two-stage pipeline since the module-IR refactor:
//! [`crate::module::build_module`] lowers the program into a structured
//! [`crate::module::GpuModule`] (typed barriers, tile declarations,
//! resolved accesses), and [`crate::print`] renders that module to
//! text. These wrappers preserve the historical one-call API.

use crate::module::build_module;
use crate::print::{print_kernel, print_module};
use kfuse_ir::{Kernel, Program};

/// Emission options.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Element type (`true` → `double`, `false` → `float`).
    pub double_precision: bool,
    /// Decorate read-only parameters with `const … __restrict__`.
    pub restrict: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            double_precision: true,
            restrict: true,
        }
    }
}

/// Emit one kernel as CUDA C.
///
/// Builds the structured module for the whole program (name resolution
/// is program-wide) and prints the requested kernel.
pub fn emit_kernel(p: &Program, k: &Kernel, opts: &CodegenOptions) -> String {
    let m = build_module(p, opts);
    let idx = p
        .kernels
        .iter()
        .position(|kk| std::ptr::eq(kk, k))
        .or_else(|| p.kernels.iter().position(|kk| kk.id == k.id))
        .expect("emit_kernel: kernel does not belong to the program");
    print_kernel(&m, &m.kernels[idx])
}

/// Emit the whole program: header, every kernel, and a host-side launch
/// sequence comment (including host sync points).
pub fn emit_program(p: &Program, opts: &CodegenOptions) -> String {
    print_module(&build_module(p, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::sanitize as cname;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::kernel::{KernelId, Segment, Staging, Statement};
    use kfuse_ir::{ArrayId, Expr, Offset, StagingMedium};

    fn ld(a: ArrayId, di: i8, dj: i8) -> Expr {
        Expr::load(a, Offset::new(di, dj, 0))
    }

    fn simple_program() -> Program {
        let mut pb = ProgramBuilder::new("demo", [64, 32, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("scale")
            .write(b, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("diff")
            .write(c, ld(b, 1, 0) - ld(b, -1, 0))
            .build();
        pb.build()
    }

    #[test]
    fn emits_signature_and_indexing() {
        let p = simple_program();
        let code = emit_kernel(&p, &p.kernels[0], &CodegenOptions::default());
        assert!(code.contains("__global__ void scale(const double* __restrict__ A, double* B)"));
        assert!(code.contains("blockIdx.x * BX + tx"));
        assert!(code.contains("for (int k = 0; k < NZ; ++k)"));
        assert!(code.contains("B[IDX3(i, j, k)]"));
    }

    #[test]
    fn unstaged_stencil_reads_are_clamped_gmem() {
        let p = simple_program();
        let code = emit_kernel(&p, &p.kernels[1], &CodegenOptions::default());
        assert!(code.contains("B[IDX3(CLAMPI(i + (1), NX)"));
        assert!(code.contains("B[IDX3(CLAMPI(i + (-1), NX)"));
    }

    /// Fused kernel: produced pivot with one halo layer → shared tile,
    /// barrier, specialized-warp halo recompute.
    fn fused_program() -> Program {
        let mut pb = ProgramBuilder::new("fused_demo", [64, 32, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("placeholder").write(b, Expr::at(a)).build();
        let mut p = pb.build();
        let seg0 = Segment::new(
            KernelId(0),
            vec![Statement {
                target: b,
                expr: Expr::at(a) + Expr::lit(1.0),
            }],
        );
        let mut seg1 = Segment::new(
            KernelId(1),
            vec![Statement {
                target: c,
                expr: ld(b, 1, 0) + ld(b, -1, 0),
            }],
        );
        seg1.barrier_before = true;
        p.kernels = vec![kfuse_ir::Kernel {
            id: KernelId(0),
            name: "F[k0+k1]".into(),
            segments: vec![seg0, seg1],
            staging: vec![Staging {
                array: b,
                halo: 1,
                medium: StagingMedium::Smem,
            }],
        }];
        p
    }

    #[test]
    fn fused_kernel_has_smem_barrier_and_halo_warps() {
        let p = fused_program();
        let code = emit_kernel(&p, &p.kernels[0], &CodegenOptions::default());
        assert!(code.contains("__shared__ double s_B[BY + 2*1][BX + 2*1 + 1];"));
        assert!(code.contains("__syncthreads();"));
        assert!(code.contains("specialized warps: recompute halo ring of s_B"));
        // Consumer reads come from the tile (radius 1 ≤ halo 1).
        assert!(code.contains("s_B[ty + 2][tx + 2]") || code.contains("s_B[ty + 1][tx + 2]"));
        // Producer writes both SMEM and GMEM.
        assert!(code.contains("s_B[ty + 1][tx + 1] ="));
        assert!(code.contains("B[IDX3(i, j, k)] ="));
    }

    #[test]
    fn register_staging_emits_scalar_reuse() {
        let mut p = simple_program();
        p.kernels[1].staging.push(Staging {
            array: ArrayId(1),
            halo: 0,
            medium: StagingMedium::Register,
        });
        // Change reads to center so the register path triggers.
        p.kernels[1].segments[0].statements[0].expr = Expr::at(ArrayId(1)) * Expr::lit(3.0);
        let code = emit_kernel(&p, &p.kernels[1], &CodegenOptions::default());
        assert!(code.contains("double r_B = (double)0;"));
        assert!(code.contains("r_B * 3.0"));
    }

    #[test]
    fn boundary_fallback_matches_listing7_idiom() {
        // Staged with halo 0, read at radius 1 → ternary SMEM/GMEM.
        let mut p = simple_program();
        p.kernels[1].staging.push(Staging {
            array: ArrayId(1),
            halo: 0,
            medium: StagingMedium::Smem,
        });
        let code = emit_kernel(&p, &p.kernels[1], &CodegenOptions::default());
        assert!(code.contains("? s_B["));
        assert!(code.contains(": B[IDX3("));
    }

    #[test]
    fn loaded_pivot_gets_cooperative_fill() {
        let mut p = simple_program();
        // Stage the READ array A of kernel 0.
        p.kernels[0].staging.push(Staging {
            array: ArrayId(0),
            halo: 0,
            medium: StagingMedium::Smem,
        });
        let code = emit_kernel(&p, &p.kernels[0], &CodegenOptions::default());
        assert!(code.contains("cooperative fill of s_A"));
        assert!(code.contains("s_A[ly][lx] = A[IDX3(gi, gj, k)];"));
    }

    #[test]
    fn program_emission_includes_header_and_launch_sequence() {
        let p = simple_program();
        let code = emit_program(&p, &CodegenOptions::default());
        assert!(code.contains("#define NX 64"));
        assert!(code.contains("#define BX 32"));
        assert!(code.contains("// Host launch sequence:"));
        assert!(code.contains("scale<<<"));
        assert!(code.contains("diff<<<"));
    }

    #[test]
    fn host_syncs_appear_in_launch_sequence() {
        let mut pb = ProgramBuilder::new("sync_demo", [64, 32, 4]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.host_sync();
        pb.kernel("k1").write(c, Expr::at(a)).build();
        let p = pb.build();
        let code = emit_program(&p, &CodegenOptions::default());
        assert!(code.contains("<host synchronization>"));
    }

    #[test]
    fn single_precision_mode() {
        let p = simple_program();
        let opts = CodegenOptions {
            double_precision: false,
            restrict: false,
        };
        let code = emit_kernel(&p, &p.kernels[0], &opts);
        assert!(code.contains("__global__ void scale(const float* A, float* B)"));
        assert!(code.contains("2.0f"));
    }

    #[test]
    fn emission_is_deterministic() {
        let p = fused_program();
        let a = emit_program(&p, &CodegenOptions::default());
        let b = emit_program(&p, &CodegenOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn identifier_sanitization() {
        assert_eq!(cname("F[k0+k1]"), "F_k0_k1_");
        assert_eq!(cname("3var"), "_3var");
        assert_eq!(cname("QFLX__r1"), "QFLX__r1");
    }

    /// Satellite fix: `rho.new` and `rho_new` both sanitize to
    /// `rho_new`; the module-level name table must disambiguate them
    /// instead of silently aliasing two distinct arrays.
    #[test]
    fn colliding_names_get_numeric_suffixes() {
        let mut pb = ProgramBuilder::new("collide", [64, 32, 4]);
        let a = pb.array("rho.new");
        let b = pb.array("rho_new");
        let c = pb.array("rho_new_2");
        pb.kernel("mix").write(c, Expr::at(a) + Expr::at(b)).build();
        let p = pb.build();
        let code = emit_program(&p, &CodegenOptions::default());
        // First claimant keeps the base name; later colliders get
        // deterministic numeric suffixes (re-probed past taken names).
        assert!(code.contains("const double* __restrict__ rho_new,"));
        assert!(code.contains("__restrict__ rho_new_2,"));
        assert!(code.contains("double* rho_new_2_2"));
        // The store goes to the disambiguated third array, not an alias.
        assert!(code.contains("rho_new_2_2[IDX3(i, j, k)]"));
        // All three parameters are distinct identifiers.
        let m = build_module(&p, &CodegenOptions::default());
        let names = &m.kernels[0].params;
        assert_eq!(names.len(), 3);
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                assert_ne!(names[i].name, names[j].name);
            }
        }
    }

    #[test]
    fn colliding_kernel_names_get_numeric_suffixes() {
        let mut pb = ProgramBuilder::new("kcollide", [64, 32, 4]);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("step.1").write(b, Expr::at(a)).build();
        pb.kernel("step_1").write(b, Expr::at(a)).build();
        let p = pb.build();
        let m = build_module(&p, &CodegenOptions::default());
        assert_eq!(m.kernels[0].name, "step_1");
        assert_eq!(m.kernels[1].name, "step_1_2");
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Golden byte-identity: the module printer reproduces, on both
    /// fixtures, the text the direct (pre-module-IR) emitter printed. The
    /// digests are FNV-1a of that text, recorded before the direct
    /// emitter was deleted: the whole program with default options, and
    /// each kernel in single precision without `__restrict__`.
    #[test]
    fn printer_matches_frozen_reference_on_fixtures() {
        #[rustfmt::skip]
        const PROGRAMS: &[(&str, u64)] = &[
            ("demo", 0x0e2ce29b7911e8f1),
            ("fused_demo", 0xacbb9c62570ad97e),
        ];
        #[rustfmt::skip]
        const KERNELS: &[(&str, &str, u64)] = &[
            ("demo", "scale", 0xd52de3ff360a6e33),
            ("demo", "diff", 0x9665d9d47f89f6d0),
            ("fused_demo", "F[k0+k1]", 0xba95f56fba961c5c),
        ];
        let opts = &CodegenOptions {
            double_precision: false,
            restrict: false,
        };
        let fixtures = [simple_program(), fused_program()];
        let programs: Vec<_> = fixtures
            .iter()
            .map(|p| {
                let text = emit_program(p, &CodegenOptions::default());
                (p.name.as_str(), fnv1a(&text))
            })
            .collect();
        assert_eq!(programs, PROGRAMS, "program text moved");
        let kernels: Vec<_> = fixtures
            .iter()
            .flat_map(|p| {
                p.kernels.iter().map(move |k| {
                    let text = emit_kernel(p, k, opts);
                    (p.name.as_str(), k.name.as_str(), fnv1a(&text))
                })
            })
            .collect();
        assert_eq!(kernels, KERNELS, "kernel text moved");
    }
}
