//! Structured GPU module IR — the typed representation of emitted CUDA.
//!
//! [`build_module`] lowers a [`kfuse_ir::Program`] (original or fused)
//! into a [`GpuModule`]: typed statements for tile declarations (with
//! the Eq. 7 padding column), cooperative loads, `__syncthreads()`
//! barriers (each tagged with *why* it exists), guarded global stores,
//! specialized-warp halo recomputes, and affine-indexed accesses whose
//! staging resolution (GMEM / `__ldg` / register / tile / tile-edge
//! ternary) is decided here rather than at print time.
//!
//! The module is the source of truth for emission: `crate::print`
//! renders it to CUDA C text byte-identically to the historical direct
//! emitter (pinned by golden tests against digests of its text), and
//! `kfuse-verify`'s `analysis` passes consume it semantically — barrier
//! intervals, race regions, and symbolic bounds all read these typed
//! statements instead of re-parsing text.
//!
//! Name resolution happens once per module through [`NameTable`], which
//! sanitizes IR names to C identifiers and — unlike the historical
//! emitter — detects post-sanitization collisions (`rho.new` vs
//! `rho_new`) and disambiguates them with a numeric suffix.

use crate::cuda::CodegenOptions;
use kfuse_ir::{ArrayId, BinOp, Expr, Kernel, KernelId, Offset, Program, StagingMedium};

/// Sanitize one IR name into a C identifier (no collision handling;
/// see [`NameTable`] for the collision-aware resolver).
pub fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Collision-free C identifier assignment for one namespace.
///
/// Names are resolved in declaration order: the first name to claim a
/// sanitized identifier keeps it; later colliders get `_2`, `_3`, …
/// appended (re-probing until free), so resolution is deterministic and
/// injective.
#[derive(Debug, Default)]
pub struct NameTable {
    assigned: Vec<String>,
}

impl NameTable {
    /// Resolve `name` into a C identifier unique within this table.
    pub fn resolve(&mut self, name: &str) -> String {
        let base = sanitize(name);
        let mut candidate = base.clone();
        let mut n = 2usize;
        while self.assigned.iter().any(|a| a == &candidate) {
            candidate = format!("{base}_{n}");
            n += 1;
        }
        self.assigned.push(candidate.clone());
        candidate
    }
}

/// One step of the host-side launch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchStep {
    /// Launch the kernel at this index of [`GpuModule::kernels`].
    Kernel(usize),
    /// A host-side synchronization point between epochs.
    HostSync,
}

/// Why a `__syncthreads()` exists at its position in the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOrigin {
    /// Separates a cooperative-fill prologue from the first segment.
    AfterFill,
    /// A planned barrier between dependent fused segments
    /// (`Segment::barrier_before`).
    SegmentBoundary,
    /// Inserted by dirty-tile tracking: a statement reads a tile stored
    /// since the last barrier at a neighbor offset.
    DirtyTile,
}

/// How one affine access resolves against the kernel's staging, per the
/// Fig. 3 idiom. Resolution is site-independent; the printer renders
/// each kind differently at interior vs. halo-warp sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain global-memory load with clamped indices.
    Gmem,
    /// Global load routed through the read-only data cache (`__ldg`).
    Ldg,
    /// Register-staged center value (`r_X`); halo sites fall back to
    /// GMEM.
    Reg {
        /// Index into [`KernelModule::stages`].
        stage: usize,
    },
    /// SMEM tile access provably inside the staged tile
    /// (Chebyshev radius ≤ halo).
    Tile {
        /// Index into [`KernelModule::stages`].
        stage: usize,
    },
    /// SMEM tile access past the halo: guarded in-tile/GMEM ternary
    /// (Listing 7's boundary fallback).
    TileEdge {
        /// Index into [`KernelModule::stages`].
        stage: usize,
    },
}

/// One affine access within an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The accessed array.
    pub array: ArrayId,
    /// Stencil offset relative to the evaluation site.
    pub offset: Offset,
    /// Resolved staging path.
    pub kind: AccessKind,
}

/// An expression over resolved accesses (the module-level mirror of
/// [`kfuse_ir::Expr`] after staging resolution).
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A floating-point literal.
    Const(f64),
    /// A binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// A resolved memory access.
    Access(Access),
}

impl CExpr {
    /// Visit every [`Access`] in the expression tree.
    pub fn for_each_access(&self, f: &mut impl FnMut(&Access)) {
        match self {
            CExpr::Const(_) => {}
            CExpr::Bin { lhs, rhs, .. } => {
                lhs.for_each_access(f);
                rhs.for_each_access(f);
            }
            CExpr::Access(a) => f(a),
        }
    }
}

/// A (possibly guarded) store of the computed value to global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalStore {
    /// Destination array.
    pub array: ArrayId,
    /// Whether the store is wrapped in the `if (i < NX && j < NY)`
    /// bounds guard. The builder always guards; analysis mutants unset
    /// this to model the KF0204/KF0305 hazard.
    pub guarded: bool,
}

/// One compute statement: evaluate an expression once per thread and
/// commit it to the resolved destinations.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeStmt {
    /// Name of the per-thread value temporary (`v{n}_{array}`).
    pub value: String,
    /// The right-hand side with staging-resolved accesses.
    pub expr: CExpr,
    /// SMEM tile store of the value at the thread's center cell
    /// (index into [`KernelModule::stages`]).
    pub tile_store: Option<usize>,
    /// Register stage the value is latched into (index into
    /// [`KernelModule::stages`]).
    pub reg_store: Option<usize>,
    /// Global-memory store of the value.
    pub global_store: Option<GlobalStore>,
    /// Whether specialized warps re-evaluate `expr` at every halo-ring
    /// cell of the stored tile (generalized Listing 6). Only meaningful
    /// with `tile_store` on a stage with halo > 0.
    pub halo_recompute: bool,
}

/// A typed statement of a kernel body (the contents of the `k` loop).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Provenance marker: the following statements come from this
    /// original kernel's segment.
    SegmentMark {
        /// Pre-fusion kernel id the segment came from.
        source: KernelId,
    },
    /// A block-wide `__syncthreads()`.
    Barrier {
        /// Why the barrier exists.
        origin: BarrierOrigin,
    },
    /// Cooperative strided fill of a loaded (clean) SMEM tile, halo
    /// included.
    CoopFill {
        /// Index into [`KernelModule::stages`].
        stage: usize,
    },
    /// A per-thread compute-and-store statement.
    Compute(ComputeStmt),
    /// Thread-dependent control flow around nested statements. The
    /// builder never emits this — it exists so divergence analysis
    /// (KF0304) and its tests can model barriers under divergent
    /// branches.
    ThreadIf {
        /// C condition text (thread-dependent predicate).
        cond: String,
        /// Nested statements.
        body: Vec<Stmt>,
    },
}

/// A staged array declaration within one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDecl {
    /// The staged array.
    pub array: ArrayId,
    /// Resolved C identifier of the array (tiles print as `s_{name}`,
    /// registers as `r_{name}`).
    pub name: String,
    /// Halo width in cells.
    pub halo: i32,
    /// Staging medium.
    pub medium: StagingMedium,
    /// Whether the SMEM tile carries the Eq. 7 anti-bank-conflict
    /// padding column (`+ 1` on the inner dimension). Always true from
    /// the builder; analysis mutants unset it to model KF0201/KF0306.
    pub padded: bool,
}

/// One kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The array bound to this parameter.
    pub array: ArrayId,
    /// Resolved C identifier.
    pub name: String,
    /// True for read-only (`const`, optionally `__restrict__`)
    /// parameters.
    pub constant: bool,
}

/// One kernel of the module.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModule {
    /// IR kernel id.
    pub id: KernelId,
    /// Resolved C identifier of the kernel.
    pub name: String,
    /// Parameters in [`Kernel::touched`] order.
    pub params: Vec<Param>,
    /// Staged arrays in [`Kernel::staging`] order.
    pub stages: Vec<StageDecl>,
    /// Typed body of the per-slice `k` loop.
    pub body: Vec<Stmt>,
}

impl KernelModule {
    /// Number of fused segments (provenance markers) in the body.
    pub fn segment_count(&self) -> usize {
        self.body
            .iter()
            .filter(|s| matches!(s, Stmt::SegmentMark { .. }))
            .count()
    }

    /// Number of planned segment-boundary barriers in the body.
    pub fn planned_barrier_count(&self) -> usize {
        self.body
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Barrier {
                        origin: BarrierOrigin::SegmentBoundary
                    }
                )
            })
            .count()
    }
}

/// A whole GPU module: every kernel of one program plus the launch
/// geometry, element type, and resolved array names.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModule {
    /// Program name (for the header comment).
    pub program_name: String,
    /// Grid extents `[NX, NY, NZ]`.
    pub grid: [u32; 3],
    /// Thread-block shape `(BX, BY)`.
    pub block: (u32, u32),
    /// `double` (true) or `float` (false) element type.
    pub double_precision: bool,
    /// Decorate read-only parameters with `const … __restrict__`.
    pub restrict: bool,
    /// Collision-free C identifier per [`ArrayId`] index.
    pub array_names: Vec<String>,
    /// The kernels, in program order.
    pub kernels: Vec<KernelModule>,
    /// Host-side launch sequence with sync points.
    pub launch: Vec<LaunchStep>,
}

impl GpuModule {
    /// Resolved C identifier of an array.
    pub fn array_name(&self, a: ArrayId) -> &str {
        &self.array_names[a.0 as usize]
    }
}

/// Lower a whole program into a [`GpuModule`].
pub fn build_module(p: &Program, opts: &CodegenOptions) -> GpuModule {
    let mut arrays = NameTable::default();
    let array_names: Vec<String> = p.arrays.iter().map(|a| arrays.resolve(&a.name)).collect();
    let mut kernel_names = NameTable::default();
    let kernels: Vec<KernelModule> = p
        .kernels
        .iter()
        .map(|k| build_kernel(k, &array_names, &mut kernel_names))
        .collect();

    let mut launch = Vec::new();
    let epochs = p.epochs();
    let mut prev = 0u32;
    for (ki, &epoch) in epochs.iter().enumerate() {
        if epoch != prev {
            launch.push(LaunchStep::HostSync);
            prev = epoch;
        }
        launch.push(LaunchStep::Kernel(ki));
    }

    GpuModule {
        program_name: p.name.clone(),
        grid: [p.grid.nx, p.grid.ny, p.grid.nz],
        block: (p.launch.block_x, p.launch.block_y),
        double_precision: opts.double_precision,
        restrict: opts.restrict,
        array_names,
        kernels,
        launch,
    }
}

fn build_kernel(k: &Kernel, array_names: &[String], kernel_names: &mut NameTable) -> KernelModule {
    let stages: Vec<StageDecl> = k
        .staging
        .iter()
        .map(|st| StageDecl {
            array: st.array,
            name: array_names[st.array.0 as usize].clone(),
            halo: i32::from(st.halo),
            medium: st.medium,
            padded: true,
        })
        .collect();
    let stage_of = |a: ArrayId| stages.iter().position(|s| s.array == a);

    let writes = k.writes();
    let params: Vec<Param> = k
        .touched()
        .into_iter()
        .map(|a| Param {
            array: a,
            name: array_names[a.0 as usize].clone(),
            constant: !writes.contains(&a),
        })
        .collect();

    let resolve = |a: ArrayId, o: Offset| -> AccessKind {
        let Some(si) = stage_of(a) else {
            return AccessKind::Gmem;
        };
        match stages[si].medium {
            StagingMedium::ReadOnlyCache => AccessKind::Ldg,
            StagingMedium::Register => {
                if o == Offset::ZERO {
                    AccessKind::Reg { stage: si }
                } else {
                    AccessKind::Gmem
                }
            }
            StagingMedium::Smem => {
                // Per-slice tiles: vertical offsets always read GMEM.
                if o.dk != 0 {
                    AccessKind::Gmem
                } else {
                    let radius = i32::from(o.di.unsigned_abs().max(o.dj.unsigned_abs()));
                    if radius <= stages[si].halo {
                        AccessKind::Tile { stage: si }
                    } else {
                        AccessKind::TileEdge { stage: si }
                    }
                }
            }
        }
    };

    fn lower(e: &Expr, resolve: &dyn Fn(ArrayId, Offset) -> AccessKind) -> CExpr {
        match e {
            Expr::Const(c) => CExpr::Const(*c),
            Expr::Bin { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                lhs: Box::new(lower(lhs, resolve)),
                rhs: Box::new(lower(rhs, resolve)),
            },
            Expr::Load { array, offset } => CExpr::Access(Access {
                array: *array,
                offset: *offset,
                kind: resolve(*array, *offset),
            }),
        }
    }

    let mut body = Vec::new();

    // Cooperative fills for loaded (clean) SMEM pivots: staged but not
    // written by this kernel.
    let mut filled_any = false;
    for (si, st) in stages.iter().enumerate() {
        if st.medium != StagingMedium::Smem || writes.contains(&st.array) {
            continue;
        }
        body.push(Stmt::CoopFill { stage: si });
        filled_any = true;
    }
    if filled_any {
        body.push(Stmt::Barrier {
            origin: BarrierOrigin::AfterFill,
        });
    }

    // Segments, with dirty-tile tracking: a statement reading a tile
    // stored since the last barrier at a neighbor offset forces a
    // barrier even inside one segment.
    let mut val_id = 0usize;
    let mut dirty: Vec<ArrayId> = Vec::new();
    for seg in &k.segments {
        if seg.barrier_before {
            body.push(Stmt::Barrier {
                origin: BarrierOrigin::SegmentBoundary,
            });
            dirty.clear();
        }
        body.push(Stmt::SegmentMark { source: seg.source });
        for stmt in &seg.statements {
            let mut needs_barrier = false;
            stmt.expr.for_each_load(&mut |a, off| {
                if off.dk == 0 && (off.di != 0 || off.dj != 0) && dirty.contains(&a) {
                    needs_barrier = true;
                }
            });
            if needs_barrier {
                body.push(Stmt::Barrier {
                    origin: BarrierOrigin::DirtyTile,
                });
                dirty.clear();
            }
            let tname = &array_names[stmt.target.0 as usize];
            let value = format!("v{val_id}_{tname}");
            val_id += 1;
            let expr = lower(&stmt.expr, &resolve);
            let tsi = stage_of(stmt.target);
            let tile_store = tsi.filter(|&si| stages[si].medium == StagingMedium::Smem);
            // Historical quirk, preserved: any non-SMEM staging of the
            // target (Register *or* ReadOnlyCache) latches `r_{name}`.
            let reg_store = tsi.filter(|&si| stages[si].medium != StagingMedium::Smem);
            let halo_recompute = tile_store.is_some_and(|si| stages[si].halo > 0);
            if let Some(si) = tile_store {
                if !dirty.contains(&stages[si].array) {
                    dirty.push(stages[si].array);
                }
            }
            body.push(Stmt::Compute(ComputeStmt {
                value,
                expr,
                tile_store,
                reg_store,
                global_store: Some(GlobalStore {
                    array: stmt.target,
                    guarded: true,
                }),
                halo_recompute,
            }));
        }
    }

    KernelModule {
        id: k.id,
        name: kernel_names.resolve(&k.name),
        params,
        stages,
        body,
    }
}
