//! Stencil-kernel intermediate representation.
//!
//! This crate stands in for the CUDA C / CUDA Fortran sources of the
//! original study: a small, analyzable IR for memory-bound finite-difference
//! kernels. It is rich enough to
//!
//! * *execute* (see `kfuse-sim`'s functional interpreter) so that fusion
//!   transformations can be validated numerically, and
//! * *analyze* — every quantity in Table III of the paper (thread load,
//!   FLOP counts, shared-array lists, halo sizes) derives from it.
//!
//! # Model
//!
//! A [`Program`] owns a set of 3D data [`array::ArrayDecl`]s over one grid
//! and an ordered list of [`Kernel`]s. Each kernel is a list of
//! [`Segment`]s (an *original* kernel has exactly one; a *fused* kernel has
//! one per original kernel folded into it, with barriers between dependent
//! segments). Each segment is a list of [`Statement`]s, each writing one
//! array at the thread's own site from a stencil [`Expr`] over neighboring
//! sites.
//!
//! Kernels follow the layout of every listing in the paper (Fig. 3): 2D
//! thread blocks tile the horizontal (i, j) plane and loop over the vertical
//! k dimension internally.
//!
//! # Example
//!
//! ```
//! use kfuse_ir::{builder::ProgramBuilder, expr::Expr, stencil::Offset};
//!
//! let mut pb = ProgramBuilder::new("demo", [64, 64, 32]);
//! let a = pb.array("A");
//! let b = pb.array("B");
//! // B[i,j,k] = A[i,j,k] + A[i-1,j,k]
//! pb.kernel("smooth")
//!     .write(b, Expr::load(a, Offset::ZERO) + Expr::load(a, Offset::new(-1, 0, 0)))
//!     .build();
//! let program = pb.build();
//! assert_eq!(program.kernels.len(), 1);
//! assert_eq!(program.kernels[0].flops(), 1);
//! ```

pub mod affine;
pub mod analysis;
pub mod array;
pub mod builder;
pub mod expr;
pub mod kernel;
pub mod program;
pub mod stencil;
pub mod validate;

pub use array::{ArrayDecl, ArrayId, GridDims};
pub use expr::{BinOp, Expr};
pub use kernel::{Kernel, KernelId, Segment, Staging, StagingMedium, Statement};
pub use program::Program;
pub use stencil::Offset;
