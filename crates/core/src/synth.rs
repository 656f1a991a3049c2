//! Group synthesis tables: the per-program columns the one synthesis
//! sweep reads.
//!
//! The HGGA's evaluation-cache *miss* path checks and synthesizes every
//! novel candidate group — the "millions of groups" regime of §III — so
//! the synthesis is allocation-free arithmetic over tables precomputed
//! once per [`ProgramInfo`]: [`SynthTables`] is a dense per-kernel
//! summary with CSR rows of per-array uses over a *compact* shared-array
//! index (`ArrayId` → `cidx`), array-touch bitsets per kernel, and
//! flops/regs/active-thread columns.
//!
//! The sweep itself is [`crate::batch::synthesize_batch`], the only
//! definition in this crate of pivot selection, the cascaded-halo
//! fixpoint, barrier placement, read-only-cache demotion and the
//! Eq. 6/7/10 arithmetic. It synthesizes up to [`crate::batch::LANES`]
//! candidates at once; a lone group is a batch of one, and an owned
//! [`crate::spec::GroupSpec`] is a lane materialized by
//! [`crate::batch::BatchView::lane_spec`]. The one deliberate duplicate is
//! outside the crate: the verifier's `derive_spec`, which
//! `tests/synth_differential.rs` holds to the sweep field for field.

use crate::metadata::ProgramInfo;
use crate::util::vec_bytes;
use kfuse_ir::ArrayId;

/// Sentinel for "no compact slot" / "not a pivot".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Use flag: the kernel reads the array.
pub(crate) const READS: u8 = 1;
/// Use flag: the kernel writes the array.
pub(crate) const WRITES: u8 = 2;

/// Precomputed structure-of-arrays synthesis tables, built once per
/// [`ProgramInfo`] (owned by `PlanContext`).
#[derive(Debug, Clone)]
pub struct SynthTables {
    /// `ArrayId` → compact index ([`NO_SLOT`] when no kernel touches it).
    pub(crate) compact: Vec<u32>,
    /// Compact index → `ArrayId`, ascending (so compact order ≡ id order).
    pub(crate) arrays: Vec<ArrayId>,
    /// Words per array-touch bitset row.
    pub(crate) words: usize,
    /// `n_kernels` rows × `words`: bitset of compact ids each kernel
    /// touches (feeds `|ShrLst|`, the `R_Adr` term of Eq. 6).
    pub(crate) touch_bits: Vec<u64>,
    /// CSR offsets into the use columns, one row per kernel (+1 sentinel).
    pub(crate) use_start: Vec<u32>,
    /// Per-use column: compact array id.
    pub(crate) u_cidx: Vec<u32>,
    /// Per-use column: [`READS`] | [`WRITES`].
    pub(crate) u_flags: Vec<u8>,
    /// Per-use column: `ThrLD(x)` (pivot selection + SMEM traffic).
    pub(crate) u_thread_load: Vec<u32>,
    /// Per-use column: max read radius (halo fixpoint increments).
    pub(crate) u_read_radius: Vec<u8>,
    /// Per-use column: FLOPs of statements writing the array (Eq. 10
    /// redundant-halo numerator).
    pub(crate) u_write_flops: Vec<u64>,
    /// Per-use column: measured GMEM load elements (projected-bytes view).
    pub(crate) u_load_elems: Vec<u64>,
    /// Per-use column: measured GMEM store elements (projected-bytes view).
    pub(crate) u_store_elems: Vec<u64>,
    /// Per-kernel column: `Fl` (Eq. 10 member sum).
    pub(crate) k_flops: Vec<u64>,
    /// Per-kernel column: live stencil-operand registers (Eq. 6).
    pub(crate) k_live_regs: Vec<u32>,
    /// Per-kernel column: `R_T` (singleton pass-through of Eq. 6).
    pub(crate) k_regs: Vec<u32>,
    /// Per-kernel column: `T_B` (Eq. 8 numerator).
    pub(crate) k_active_threads: Vec<u32>,
    /// Per-kernel column: Σ `ThrLD` over reading uses (halo-widening
    /// input-reference count of the projected-bytes model).
    pub(crate) k_read_refs: Vec<u64>,
}

impl SynthTables {
    /// Build the tables from extracted metadata.
    pub fn build(info: &ProgramInfo) -> Self {
        let n_kernels = info.kernels.len();
        let mut n_arrays = info.n_arrays;
        for k in &info.kernels {
            for u in &k.uses {
                n_arrays = n_arrays.max(u.array.index() + 1);
            }
        }

        let mut touched = vec![false; n_arrays];
        for k in &info.kernels {
            for u in &k.uses {
                touched[u.array.index()] = true;
            }
        }
        let mut compact = vec![NO_SLOT; n_arrays];
        let mut arrays = Vec::new();
        for (a, &t) in touched.iter().enumerate() {
            if t {
                compact[a] = arrays.len() as u32;
                arrays.push(ArrayId(a as u32));
            }
        }
        let words = arrays.len().div_ceil(64).max(1);

        let n_uses: usize = info.kernels.iter().map(|k| k.uses.len()).sum();
        let mut t = SynthTables {
            compact,
            arrays,
            words,
            touch_bits: vec![0; n_kernels * words],
            use_start: Vec::with_capacity(n_kernels + 1),
            u_cidx: Vec::with_capacity(n_uses),
            u_flags: Vec::with_capacity(n_uses),
            u_thread_load: Vec::with_capacity(n_uses),
            u_read_radius: Vec::with_capacity(n_uses),
            u_write_flops: Vec::with_capacity(n_uses),
            u_load_elems: Vec::with_capacity(n_uses),
            u_store_elems: Vec::with_capacity(n_uses),
            k_flops: Vec::with_capacity(n_kernels),
            k_live_regs: Vec::with_capacity(n_kernels),
            k_regs: Vec::with_capacity(n_kernels),
            k_active_threads: Vec::with_capacity(n_kernels),
            k_read_refs: Vec::with_capacity(n_kernels),
        };

        t.use_start.push(0);
        for (ki, k) in info.kernels.iter().enumerate() {
            let mut read_refs = 0u64;
            for u in &k.uses {
                let c = t.compact[u.array.index()];
                debug_assert_ne!(c, NO_SLOT);
                t.u_cidx.push(c);
                let mut fl = 0u8;
                if u.reads {
                    fl |= READS;
                    read_refs += u64::from(u.thread_load);
                }
                if u.writes {
                    fl |= WRITES;
                }
                t.u_flags.push(fl);
                t.u_thread_load.push(u.thread_load);
                t.u_read_radius.push(u.read_radius);
                t.u_write_flops.push(u.write_flops);
                t.u_load_elems.push(u.load_elems);
                t.u_store_elems.push(u.store_elems);
                let c = c as usize;
                t.touch_bits[ki * words + c / 64] |= 1 << (c % 64);
            }
            t.use_start.push(t.u_cidx.len() as u32);
            t.k_flops.push(k.flops);
            t.k_live_regs.push(k.live_regs);
            t.k_regs.push(k.regs_per_thread);
            t.k_active_threads.push(k.active_threads);
            t.k_read_refs.push(read_refs);
        }
        t
    }

    /// Number of compact (touched) arrays.
    pub fn n_compact(&self) -> usize {
        self.arrays.len()
    }

    /// Heap bytes the tables own: every column.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.compact)
            + vec_bytes(&self.arrays)
            + vec_bytes(&self.touch_bits)
            + vec_bytes(&self.use_start)
            + vec_bytes(&self.u_cidx)
            + vec_bytes(&self.u_flags)
            + vec_bytes(&self.u_thread_load)
            + vec_bytes(&self.u_read_radius)
            + vec_bytes(&self.u_write_flops)
            + vec_bytes(&self.u_load_elems)
            + vec_bytes(&self.u_store_elems)
            + vec_bytes(&self.k_flops)
            + vec_bytes(&self.k_live_regs)
            + vec_bytes(&self.k_regs)
            + vec_bytes(&self.k_active_threads)
            + vec_bytes(&self.k_read_refs)
    }

    /// The use-column range of kernel `ki`.
    #[inline]
    pub(crate) fn use_range(&self, ki: usize) -> std::ops::Range<usize> {
        self.use_start[ki] as usize..self.use_start[ki + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// k0: B = A; k1: C = B; k2: D = B[-1] + B[+1] (the spec.rs fixture).
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

    #[test]
    fn tables_index_every_touched_array() {
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let t = SynthTables::build(&info);
        assert_eq!(t.n_compact(), 4);
        for (c, &a) in t.arrays.iter().enumerate() {
            assert_eq!(t.compact[a.index()] as usize, c);
        }
        // Compact order must mirror ArrayId order (pivot ordering relies
        // on it).
        assert!(t.arrays.windows(2).all(|w| w[0] < w[1]));
    }
}
