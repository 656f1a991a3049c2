//! Data dependency graph and array-touch classification (§II-B1).
//!
//! The graph is bipartite: kernels × arrays, with edge direction encoding
//! intent exactly as in the paper's Fig. 1 — an edge array→kernel is a
//! read, kernel→array a write. From the whole-program view each array falls
//! into one of four touch classes that decide whether and how its reuse can
//! be exposed by fusion.

use kfuse_ir::{ArrayId, KernelId, Program};
use serde::{Deserialize, Serialize};

/// How an array is touched over the lifetime of the program (§II-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TouchClass {
    /// Only ever read — reuse is free, bounded by SMEM capacity (red
    /// diamonds in Fig. 1).
    ReadOnly,
    /// Written by exactly one kernel and read by others — reusable if
    /// producer and consumers fuse, requiring a barrier (yellow).
    ReadWrite,
    /// Written by several kernels — imposes precedence constraints that
    /// the redundant-copy relaxation can remove (blue).
    ExpandableReadWrite,
    /// Only ever written — not reusable (green).
    WriteOnly,
}

/// The bipartite data dependency graph of a program.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    /// For each array: kernels reading it, in invocation order.
    pub readers: Vec<Vec<KernelId>>,
    /// For each array: kernels writing it, in invocation order.
    pub writers: Vec<Vec<KernelId>>,
    /// For each kernel: arrays it reads (sorted).
    pub kernel_reads: Vec<Vec<ArrayId>>,
    /// For each kernel: arrays it writes (sorted).
    pub kernel_writes: Vec<Vec<ArrayId>>,
    /// Touch class per array.
    pub classes: Vec<TouchClass>,
    /// CSR row offsets into [`Self::share_flat`], one row per array (+1
    /// sentinel). Sharing sets are precomputed at build so the hot callers
    /// (kinship construction, Table II census) borrow slices instead of
    /// sorting a fresh `Vec` per query.
    share_start: Vec<u32>,
    /// Flattened sharing sets: every kernel touching each array, sorted,
    /// deduplicated.
    share_flat: Vec<KernelId>,
    /// Arrays whose sharing set has ≥2 members, ascending.
    shared: Vec<ArrayId>,
}

impl DependencyGraph {
    /// Build the graph from a program. Kernel order follows invocation
    /// order (kernel ids are positions).
    pub fn build(p: &Program) -> Self {
        let n_arrays = p.arrays.len();
        let mut readers = vec![Vec::new(); n_arrays];
        let mut writers = vec![Vec::new(); n_arrays];
        let mut kernel_reads = Vec::with_capacity(p.kernels.len());
        let mut kernel_writes = Vec::with_capacity(p.kernels.len());

        for k in &p.kernels {
            let reads: Vec<ArrayId> = k.reads().into_keys().collect();
            let writes = k.writes();
            for &a in &reads {
                readers[a.index()].push(k.id);
            }
            for &a in &writes {
                writers[a.index()].push(k.id);
            }
            kernel_reads.push(reads);
            kernel_writes.push(writes);
        }

        let classes = (0..n_arrays)
            .map(|a| match (readers[a].len(), writers[a].len()) {
                (0, _) => TouchClass::WriteOnly,
                (_, 0) => TouchClass::ReadOnly,
                (_, 1) => TouchClass::ReadWrite,
                (_, _) => TouchClass::ExpandableReadWrite,
            })
            .collect();

        let mut share_start = Vec::with_capacity(n_arrays + 1);
        let mut share_flat = Vec::new();
        let mut shared = Vec::new();
        let mut buf: Vec<KernelId> = Vec::new();
        share_start.push(0u32);
        for a in 0..n_arrays {
            buf.clear();
            buf.extend_from_slice(&readers[a]);
            buf.extend_from_slice(&writers[a]);
            buf.sort_unstable();
            buf.dedup();
            if buf.len() >= 2 {
                shared.push(ArrayId(a as u32));
            }
            share_flat.extend_from_slice(&buf);
            share_start.push(share_flat.len() as u32);
        }

        DependencyGraph {
            readers,
            writers,
            kernel_reads,
            kernel_writes,
            classes,
            share_start,
            share_flat,
            shared,
        }
    }

    /// Touch class of `a`.
    pub fn class(&self, a: ArrayId) -> TouchClass {
        self.classes[a.index()]
    }

    /// The *sharing set* `K(D)` of an array: every kernel touching it
    /// (Table II), in invocation order. A borrowed CSR row — precomputed at
    /// build, no per-call allocation.
    pub fn sharing_set(&self, a: ArrayId) -> &[KernelId] {
        let i = a.index();
        &self.share_flat[self.share_start[i] as usize..self.share_start[i + 1] as usize]
    }

    /// Number of sharing sets with ≥2 members (the paper reports 65 for
    /// SCALE-LES and 29 for HOMME).
    pub fn sharing_set_count(&self) -> usize {
        self.shared.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::Expr;

    /// A small program exercising all four touch classes:
    /// RO: A (read by k0, k1); RW: B (written k0, read k1);
    /// Expandable: Q (written k1, read k2, written k2... we use two
    /// writers); WO: W (written only).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        let q = pb.array("Q");
        let w = pb.array("W");
        // k0: B = A+1, Q = A*2      (first write of Q)
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .write(q, Expr::at(a) * Expr::lit(2.0))
            .build();
        // k1: W = B + Q             (reads Q generation 1)
        pb.kernel("k1").write(w, Expr::at(b) + Expr::at(q)).build();
        // k2: Q = A - 1             (second write of Q)
        pb.kernel("k2")
            .write(q, Expr::at(a) - Expr::lit(1.0))
            .build();
        // k3: W = Q                 (reads Q generation 2) — W double write
        pb.kernel("k3")
            .write(w, Expr::load(q, Offset::new(-1, 0, 0)))
            .build();
        pb.build()
    }

    #[test]
    fn classification_matches_paper_taxonomy() {
        let p = program();
        let g = DependencyGraph::build(&p);
        assert_eq!(g.class(ArrayId(0)), TouchClass::ReadOnly); // A
        assert_eq!(g.class(ArrayId(1)), TouchClass::ReadWrite); // B
        assert_eq!(g.class(ArrayId(2)), TouchClass::ExpandableReadWrite); // Q
        assert_eq!(g.class(ArrayId(3)), TouchClass::WriteOnly); // W
    }

    #[test]
    fn readers_and_writers_in_invocation_order() {
        let p = program();
        let g = DependencyGraph::build(&p);
        assert_eq!(g.writers[2], vec![KernelId(0), KernelId(2)]); // Q
        assert_eq!(g.readers[2], vec![KernelId(1), KernelId(3)]); // Q
        assert_eq!(g.readers[0], vec![KernelId(0), KernelId(2)]); // A
    }

    #[test]
    fn sharing_sets() {
        let p = program();
        let g = DependencyGraph::build(&p);
        // Q touched by k0,k1,k2,k3.
        assert_eq!(
            g.sharing_set(ArrayId(2)),
            vec![KernelId(0), KernelId(1), KernelId(2), KernelId(3)]
        );
        // All four arrays are shared here.
        assert_eq!(g.sharing_set_count(), 4);
    }

    #[test]
    fn single_kernel_array_not_shared() {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("k").write(b, Expr::at(a)).build();
        let g = DependencyGraph::build(&pb.build());
        assert_eq!(g.sharing_set_count(), 0);
    }
}
