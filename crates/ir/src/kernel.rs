//! Kernels, segments, statements, and SMEM staging directives.

use crate::{
    array::ArrayId,
    expr::Expr,
    stencil::{self, Offset},
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a kernel within one [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KernelId(pub u32);

impl KernelId {
    /// Index into per-kernel tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// One assignment `target[i,j,k] = expr`, executed by every thread at its
/// own site for every k level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Array written at the thread's own site.
    pub target: ArrayId,
    /// Right-hand side stencil expression.
    pub expr: Expr,
}

/// Where a staged shared array is held inside a fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StagingMedium {
    /// On-chip shared memory tile (thread load > 1; §II-D1).
    Smem,
    /// A per-thread register (thread load == 1; §II-D1).
    Register,
    /// The hardware-managed read-only (texture) cache — usable only for
    /// arrays the kernel never writes; relaxes SMEM capacity (§II-C).
    ReadOnlyCache,
}

/// A staging directive: hold `array` on-chip for reuse across segments of a
/// fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Staging {
    /// The staged (pivot) array.
    pub array: ArrayId,
    /// Halo layers staged around the block tile. Non-zero only for complex
    /// fusions where a later segment reads neighbor sites of an array
    /// written by an earlier segment (§II-D2 temporal blocking).
    pub halo: u8,
    /// SMEM tile or per-thread register.
    pub medium: StagingMedium,
}

/// A contiguous run of statements originating from one original kernel.
///
/// Original (unfused) kernels have exactly one segment; a fused kernel has
/// one per original kernel folded into it, in a valid execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Provenance: the original kernel these statements came from.
    pub source: KernelId,
    /// `__syncthreads()` before this segment (set when the segment depends
    /// on SMEM data produced by an earlier segment — complex fusion).
    pub barrier_before: bool,
    /// The statements, executed in order.
    pub statements: Vec<Statement>,
}

impl Segment {
    /// A barrier-free segment.
    pub fn new(source: KernelId, statements: Vec<Statement>) -> Self {
        Segment {
            source,
            barrier_before: false,
            statements,
        }
    }
}

/// A GPU kernel: one or more [`Segment`]s plus staging directives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel id, equal to its position in [`crate::Program::kernels`].
    pub id: KernelId,
    /// Human-readable name.
    pub name: String,
    /// Statement segments in execution order.
    pub segments: Vec<Segment>,
    /// Arrays staged on-chip for cross-segment reuse. Empty for original
    /// kernels unless the original implementation already used SMEM.
    pub staging: Vec<Staging>,
}

impl Kernel {
    /// A single-segment (original) kernel.
    pub fn single(id: KernelId, name: impl Into<String>, statements: Vec<Statement>) -> Self {
        Kernel {
            id,
            name: name.into(),
            segments: vec![Segment::new(id, statements)],
            staging: Vec::new(),
        }
    }

    /// True if this kernel was produced by fusing ≥2 original kernels.
    pub fn is_fused(&self) -> bool {
        self.segments.len() > 1
    }

    /// Iterate over all statements across segments.
    pub fn statements(&self) -> impl Iterator<Item = &Statement> {
        self.segments.iter().flat_map(|s| s.statements.iter())
    }

    /// Ids of the original kernels folded into this one, in segment order.
    pub fn sources(&self) -> Vec<KernelId> {
        self.segments.iter().map(|s| s.source).collect()
    }

    /// Total FLOPs per grid site across all statements (`Fl`, Table III —
    /// per-site; multiply by grid sites for the kernel total).
    pub fn flops(&self) -> u64 {
        self.statements().map(|s| s.expr.flops()).sum()
    }

    /// Number of `__syncthreads()` barriers in the kernel body.
    pub fn barrier_count(&self) -> u32 {
        self.segments.iter().filter(|s| s.barrier_before).count() as u32
    }

    /// Arrays read anywhere in the kernel, with the set of distinct offsets
    /// used for each (sorted for determinism).
    pub fn reads(&self) -> BTreeMap<ArrayId, Vec<Offset>> {
        let mut m: BTreeMap<ArrayId, Vec<Offset>> = BTreeMap::new();
        for st in self.statements() {
            st.expr
                .for_each_load(&mut |a, o| m.entry(a).or_default().push(o));
        }
        for offs in m.values_mut() {
            offs.sort_unstable();
            offs.dedup();
        }
        m
    }

    /// Arrays written anywhere in the kernel (sorted, deduplicated).
    pub fn writes(&self) -> Vec<ArrayId> {
        let mut v: Vec<ArrayId> = self.statements().map(|s| s.target).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All arrays touched (read or written), sorted and deduplicated.
    pub fn touched(&self) -> Vec<ArrayId> {
        let mut v: Vec<ArrayId> = self.reads().into_keys().collect();
        v.extend(self.writes());
        v.sort_unstable();
        v.dedup();
        v
    }

    /// *Thread load* of `array` in this kernel: the number of distinct
    /// horizontal `(di, dj)` read positions, i.e. how many threads of a
    /// block touch the same element (`D -T-> K`, Table II).
    ///
    /// Returns 0 if the kernel does not read the array.
    pub fn thread_load(&self, array: ArrayId) -> u32 {
        self.reads()
            .get(&array)
            .map(|offs| stencil::horizontal_footprint(offs.iter().copied()).len() as u32)
            .unwrap_or(0)
    }

    /// Maximum horizontal stencil radius over reads of `array`.
    pub fn read_radius(&self, array: ArrayId) -> u8 {
        self.reads()
            .get(&array)
            .map(|offs| stencil::max_radius(offs.iter().copied()))
            .unwrap_or(0)
    }

    /// Maximum horizontal stencil radius over all reads in the kernel.
    pub fn max_read_radius(&self) -> u8 {
        self.reads()
            .values()
            .map(|offs| stencil::max_radius(offs.iter().copied()))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn k() -> Kernel {
        // T[i,j,k] = A[i,j,k] + A[i-1,j,k] + B[i,j,k-1]
        // U[i,j,k] = A[i,j,k] * 2
        let a = ArrayId(0);
        let b = ArrayId(1);
        let t = ArrayId(2);
        let u = ArrayId(3);
        Kernel::single(
            KernelId(0),
            "test",
            vec![
                Statement {
                    target: t,
                    expr: Expr::at(a)
                        + Expr::load(a, Offset::new(-1, 0, 0))
                        + Expr::load(b, Offset::new(0, 0, -1)),
                },
                Statement {
                    target: u,
                    expr: Expr::at(a) * Expr::lit(2.0),
                },
            ],
        )
    }

    #[test]
    fn reads_and_writes() {
        let k = k();
        assert_eq!(k.writes(), vec![ArrayId(2), ArrayId(3)]);
        let reads = k.reads();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[&ArrayId(0)].len(), 2);
        assert_eq!(k.touched().len(), 4);
    }

    #[test]
    fn thread_load_counts_horizontal_positions() {
        let k = k();
        assert_eq!(k.thread_load(ArrayId(0)), 2); // (0,0) and (-1,0)
        assert_eq!(k.thread_load(ArrayId(1)), 1); // (0,0,-1) → horizontal (0,0)
        assert_eq!(k.thread_load(ArrayId(9)), 0);
    }

    #[test]
    fn flop_metadata() {
        let k = k();
        assert_eq!(k.flops(), 3);
    }

    #[test]
    fn radii() {
        let k = k();
        assert_eq!(k.read_radius(ArrayId(0)), 1);
        assert_eq!(k.read_radius(ArrayId(1)), 0);
        assert_eq!(k.max_read_radius(), 1);
    }

    #[test]
    fn single_kernel_is_not_fused() {
        let k = k();
        assert!(!k.is_fused());
        assert_eq!(k.barrier_count(), 0);
        assert_eq!(k.sources(), vec![KernelId(0)]);
    }
}
