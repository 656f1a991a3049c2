//! CUDA C source generation for stencil kernels.
//!
//! The paper applied its fusion plans by hand and left "an automated
//! source-to-source code transformation" as future work; this crate
//! closes that gap for the `kfuse-ir` representation. Given any
//! [`kfuse_ir::Kernel`] — original or fused — [`cuda::emit_kernel`]
//! produces a compilable-style CUDA C listing in the idiom of the paper's
//! Fig. 3:
//!
//! * 2D thread blocks over (i, j) with the vertical `k` loop inside;
//! * `__shared__` tiles for SMEM-staged arrays, sized `(BX+2H)·(BY+2H)`
//!   per k-slice, with the Eq. 7 bank-conflict padding column;
//! * cooperative tile fills for *loaded* pivots (all threads strided over
//!   the tile, halo included — the generalization of Listing 6's
//!   specialized warps);
//! * produced pivots written to both SMEM and GMEM, with halo sites
//!   recomputed by specialized warps (`Listing 6`'s `if (ty == 0)` pattern
//!   generalized to a strided halo loop);
//! * register staging (`Listing 7`'s scalar reuse) for thread-load-1
//!   pivots;
//! * boundary threads falling back to clamped GMEM reads exactly like
//!   Listing 7's `if (tx == 0) xT = T[i-1,j,k]; else xT = s_T[tx-1][ty]`.
//!
//! Since the module-IR refactor, text is no longer the source of truth:
//! [`module::build_module`] lowers the program into a structured
//! [`module::GpuModule`] — typed tile declarations, barriers tagged
//! with their origin, guarded stores, staging-resolved affine accesses
//! — and [`print::print_module`] derives the CUDA C text from it. The
//! semantic analyses in `kfuse-verify` (barrier-interval race
//! detection, barrier-divergence, symbolic bounds) consume the same
//! module, so what is analyzed is exactly what is printed. Golden tests
//! hold the printer to digests of the text the pre-refactor direct
//! emitter printed.
//!
//! The generated text is deterministic and structurally tested; it is not
//! compiled in this repository (no CUDA toolchain), but it is the artifact
//! a practitioner would hand to `nvcc`.

#![warn(missing_docs)]

pub mod cuda;
pub mod module;
pub mod print;

pub use cuda::{emit_kernel, emit_program, CodegenOptions};
pub use module::{build_module, GpuModule};
pub use print::{print_kernel, print_module};
