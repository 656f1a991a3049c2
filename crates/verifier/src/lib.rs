//! `kfuse-verify` — independent static verification of fusion plans.
//!
//! The search crate *optimizes against* the constraint system of Fig. 4;
//! this crate *re-derives* it from scratch so evaluator bugs cannot
//! silently become "valid" plans. Three layers, each usable on its own:
//!
//! 1. [`constraints`] — the plan-level constraint system 1.1–1.7 (exact
//!    cover, path closure, kinship, SMEM/register capacity with Eq. 7
//!    padding, profitability) plus the §II-C restrictions (host syncs,
//!    streams) and group-condensation acyclicity, all computed with the
//!    verifier's own graph algorithms over extracted metadata.
//! 2. [`hazards`] — RAW/WAR data hazards on the (fused) IR, staging-halo
//!    sufficiency, read-only-cache coherence, and soundness of the
//!    expandable read-write renaming from `relax.rs`.
//! 3. [`cuda_lint`] — a line-oriented lint over generated CUDA text
//!    (bank-conflict padding, barrier placement, halo index bounds,
//!    bounds-guarded global stores).
//! 4. [`analysis`] — semantic passes over the structured GPU module IR
//!    (`kfuse_codegen::module`): barrier-interval shared-memory race
//!    detection, barrier-divergence checking, and symbolic bounds via
//!    interval analysis of affine indices. These subsume the text lint's
//!    `KF02xx` findings with structural `KF03xx` counterparts.
//!
//! Every finding is a structured [`Diagnostic`] with a stable `KF####`
//! code (see [`diag`] for the full table), a severity, a span, an
//! explanation and a suggested fix, renderable as text or JSON.
//!
//! Each entry point also has an observed variant ([`check_plan_with`],
//! [`check_program_with`], [`lint_with`]) that wraps the pass in a
//! `kfuse-obs` span (`constraint_pass` / `hazard_pass` / `lint_pass`)
//! carrying the input size and diagnostic count, so verifier time shows
//! up alongside solver work in exported chrome traces. Pass
//! `ObsHandle::disabled()` (or call the plain variant) to pay nothing.

pub mod analysis;
pub mod constraints;
pub mod cuda_lint;
pub mod diag;
pub mod hazards;

pub use analysis::{analyze_module, analyze_module_counted, analyze_module_with};
pub use constraints::{check_plan, check_plan_with, CheckerTables, PlanChecker};
pub use cuda_lint::{lint, lint_with};
pub use diag::{Diagnostic, Report, Severity, Span};
pub use hazards::{check_program, check_program_with};
