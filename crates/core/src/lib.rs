//! Kernel-fusion planning: the primary contribution of the reproduced paper
//! (Wahib & Maruyama, *Scalable Kernel Fusion for Memory-Bound GPU
//! Applications*, SC'14).
//!
//! The crate implements, in dependency order:
//!
//! 1. [`depgraph`] — the bipartite data dependency graph and the four-way
//!    classification of array touches (§II-B1): read-only, read-write,
//!    *expandable* read-write, write-only.
//! 2. [`relax`] — the expandable read-write relaxation: renaming write
//!    generations into redundant array copies to remove precedence
//!    constraints at the cost of memory capacity.
//! 3. [`exec_order`] — the order-of-execution DAG (§II-B2) with transitive
//!    reachability, supporting the path-closure constraint (1.3).
//! 4. [`kinship`] — degree of kinship (Table II) over the sharing graph,
//!    supporting constraint (1.5).
//! 5. [`metadata`] — Table III metadata extraction (the only thing the
//!    codeless models are allowed to consume).
//! 6. [`spec`] — synthesis of a fusion *specification* for a candidate
//!    group: segment order, barriers, SMEM staging with cascaded halo
//!    layers, projected register/SMEM demand.
//! 7. [`plan`] — fusion plans (set partitions) and the full constraint
//!    system of Fig. 4 (1.1–1.7).
//! 8. [`fuse`] — the IR-to-IR fusion transformation (§II-D simple and
//!    complex fusion), which the paper performed manually.
//! 9. [`model`] — the three performance projections compared in §IV:
//!    Roofline, the empirical "simple model", and the proposed codeless
//!    upper-bound model (Eqs. 2–10).
//! 10. [`efficiency`] — reducible-traffic analysis (Table I) and the
//!     Fusion Efficiency metric (Eqs. 11–12).
//! 11. [`pipeline`] — Algorithm 1: metadata → graphs → search → transform,
//!     generic over a solver (the HGGA lives in `kfuse-search`).
//!
//! Solver runs report through the structured observability layer in
//! `kfuse-obs`: [`pipeline::SolveStats`] is a derived view over its
//! metrics registry, and [`pipeline::Solver::solve_observed`] threads a
//! tracing handle through the search (see `OBSERVABILITY.md`).

#![warn(missing_docs)]

pub mod batch;
pub mod depgraph;
pub mod dot;
pub mod efficiency;
pub mod exec_order;
pub mod fingerprint;
pub mod fuse;
pub mod kinship;
pub mod metadata;
pub mod model;
pub mod pipeline;
pub mod plan;
pub mod relax;
pub mod repeat;
pub mod spec;
pub mod subprogram;
pub mod synth;
pub mod util;

pub use batch::{BatchScratch, BatchStats, CandidateBatch, LANES};
pub use depgraph::{DependencyGraph, TouchClass};
pub use exec_order::ExecOrderGraph;
pub use fingerprint::{kernel_colors, kernel_signatures, program_fingerprint};
pub use kinship::ShareGraph;
pub use metadata::{KernelMeta, ProgramInfo};
pub use model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
pub use plan::{FusionPlan, PlanError};
pub use spec::GroupSpec;
pub use synth::{SpecView, SynthScratch, SynthTables};
