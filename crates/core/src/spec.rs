//! The fusion specification of a candidate group.
//!
//! Given only kernel *metadata* (never code — the codeless premise of §IV),
//! a [`GroupSpec`] records everything the models and the fusion
//! transformation need to agree on:
//!
//! * segment order (host invocation order, which is a topological order of
//!   the exec-order DAG);
//! * which shared arrays become *pivots* (Table II) held on-chip, in SMEM
//!   or in a register (§II-D1);
//! * halo layers for pivots that are produced inside the kernel and read
//!   at neighbor offsets by later segments (§II-D2), cascaded through
//!   producer chains;
//! * barrier placement;
//! * projected register demand (Eq. 6) and SMEM demand with bank-conflict
//!   padding (Eq. 7);
//! * total FLOPs including redundant halo computation (Eq. 10 numerator).
//!
//! The decisions themselves have one definition in this crate, the
//! synthesis sweep [`crate::batch::synthesize_batch`]; a `GroupSpec` is
//! one lane of it materialized ([`crate::batch::BatchView::lane_spec`]),
//! and [`GroupSpec::synthesize`] is the convenience form — a batch of one
//! — for callers without a `PlanContext`.

use crate::batch::{synthesize_batch, BatchScratch};
use crate::metadata::ProgramInfo;
use crate::synth::SynthTables;
use kfuse_ir::{ArrayId, KernelId};
use serde::{Deserialize, Serialize};

/// RegFac: empirical register-reuse factor (paper: ≈0.85 on Kepler's nvcc,
/// slightly better on Maxwell).
pub const REG_FAC: f64 = 0.85;

/// Where and how a pivot array is staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PivotSpec {
    /// The staged array.
    pub array: ArrayId,
    /// Halo layers (non-zero only for produced pivots read at radius).
    pub halo: u8,
    /// True → SMEM tile; false → per-thread register (or read-only cache
    /// when [`PivotSpec::ro_cache`] is set).
    pub smem: bool,
    /// True if the pivot is written by a member before being read by a
    /// later member (its halo must be *computed*; barriers required).
    pub produced: bool,
    /// Clean pivot demoted to the hardware read-only cache (§II-C
    /// relaxation; only set when the device enables it).
    pub ro_cache: bool,
}

/// A fully synthesized fusion specification for one group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Members in segment (invocation) order.
    pub members: Vec<KernelId>,
    /// Staged pivot arrays (`F^Pivot` of Table II).
    pub pivots: Vec<PivotSpec>,
    /// Which members need a `__syncthreads()` before their segment.
    pub barrier_before: Vec<bool>,
    /// SMEM bytes per block including Eq. 7 bank-conflict padding.
    pub smem_bytes: u64,
    /// Projected registers per thread (Eq. 6).
    pub projected_regs: u32,
    /// Total FLOPs per invocation including halo redundancy.
    pub flops: u64,
    /// `Hal` of the widest produced pivot, in bytes.
    pub halo_bytes: u64,
    /// Bytes routed through the read-only cache (§II-C relaxation; zero
    /// unless the device enables it).
    pub ro_bytes: u64,
    /// `T_B`: least active threads per block among members.
    pub active_threads: u32,
    /// True if any barrier is required (complex fusion, §II-D2).
    pub complex: bool,
}

impl GroupSpec {
    /// Synthesize the specification for `group` (kernel ids, any order)
    /// against `info`. Single-kernel groups yield a pass-through spec.
    /// Builds the [`SynthTables`] per call: to synthesize more than a
    /// handful of groups, hold a `PlanContext` and use `check_group_with`.
    pub fn synthesize(info: &ProgramInfo, group: &[KernelId]) -> GroupSpec {
        let tables = SynthTables::build(info);
        synthesize_batch(&tables, info, &[group], &mut BatchScratch::new()).lane_spec(0)
    }

    /// Number of barriers in the fused kernel.
    pub fn barrier_count(&self) -> u32 {
        self.barrier_before.iter().filter(|&&b| b).count() as u32
    }

    /// The pivot entry for `a`, if staged.
    pub fn pivot(&self, a: ArrayId) -> Option<&PivotSpec> {
        self.pivots.iter().find(|p| p.array == a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// k0: B = A (pointwise); k1: C = B (pointwise); k2: D = B[-1] + B[+1].
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(b) * Expr::lit(2.0))
            .build();
        pb.kernel("k2")
            .write(
                d,
                Expr::load(b, Offset::new(-1, 0, 0)) + Expr::load(b, Offset::new(1, 0, 0)),
            )
            .build();
        pb.build()
    }

    fn info() -> ProgramInfo {
        ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double)
    }

    #[test]
    fn pointwise_pair_uses_register_pivot_no_barrier() {
        let info = info();
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(1)]);
        let pb = spec.pivot(ArrayId(1)).expect("B must be a pivot");
        assert!(!pb.smem, "thread-load-1 radius-0 pivot stays in a register");
        assert!(pb.produced);
        assert_eq!(pb.halo, 0);
        assert_eq!(spec.barrier_count(), 0);
        assert!(!spec.complex);
        assert_eq!(spec.smem_bytes, 0);
    }

    #[test]
    fn radius_read_of_produced_pivot_needs_halo_and_barrier() {
        let info = info();
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(2)]);
        let pb = spec.pivot(ArrayId(1)).unwrap();
        assert!(pb.smem);
        assert!(pb.produced);
        assert_eq!(pb.halo, 1);
        assert!(spec.complex);
        assert_eq!(spec.barrier_count(), 1);
        assert!(spec.halo_bytes > 0);
        assert!(spec.smem_bytes > 0);
        // Halo compute adds FLOPs beyond the member sum.
        let member_sum = info.kernels[0].flops + info.kernels[2].flops;
        assert!(spec.flops > member_sum);
    }

    #[test]
    fn cascaded_halo_through_producer_chain() {
        // k0: B = A; k1: C = B[+1]; k2: D = C[+1]. Fusing all three:
        // C needs halo 1, B needs halo 2.
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0")
            .write(b, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)))
            .build();
        pb.kernel("k2")
            .write(d, Expr::load(c, Offset::new(1, 0, 0)))
            .build();
        let p = pb.build();
        let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(1), KernelId(2)]);
        assert_eq!(spec.pivot(b).unwrap().halo, 2, "B cascades to halo 2");
        assert_eq!(spec.pivot(c).unwrap().halo, 1);
        assert_eq!(spec.barrier_count(), 2);
    }

    #[test]
    fn shared_readonly_input_becomes_loaded_pivot() {
        // Two kernels both reading A at radius 1 → A staged, not produced.
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::load(a, Offset::new(-1, 0, 0)))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) + Expr::load(a, Offset::new(0, 1, 0)))
            .build();
        let p = pb.build();
        let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(1)]);
        let pa = spec.pivot(a).unwrap();
        assert!(pa.smem);
        assert!(!pa.produced, "read-only pivot is loaded, not produced");
        assert_eq!(pa.halo, 0, "clean pivots read boundary sites from GMEM");
        assert!(!spec.complex, "simple fusion: no barrier");
    }

    #[test]
    fn single_member_spec_is_passthrough() {
        let info = info();
        let spec = GroupSpec::synthesize(&info, &[KernelId(2)]);
        assert_eq!(spec.members, vec![KernelId(2)]);
        assert_eq!(spec.projected_regs, info.kernels[2].regs_per_thread);
        assert_eq!(spec.flops, info.kernels[2].flops);
        assert!(!spec.complex);
    }

    #[test]
    fn fused_registers_exceed_heaviest_member() {
        let info = info();
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(2)]);
        let heaviest = info.kernels[0]
            .regs_per_thread
            .max(info.kernels[2].regs_per_thread);
        assert!(spec.projected_regs > heaviest);
    }

    #[test]
    fn member_order_is_canonical() {
        let info = info();
        let s1 = GroupSpec::synthesize(&info, &[KernelId(2), KernelId(0)]);
        let s2 = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(2)]);
        assert_eq!(s1.members, s2.members);
        assert_eq!(s1.smem_bytes, s2.smem_bytes);
    }
}
